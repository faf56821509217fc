"""The live telemetry-plane command."""

from __future__ import annotations

import argparse


def cmd_serve(args: argparse.Namespace) -> str:
    """Run the live telemetry plane: a long-lived power-advisor
    service with a session socket and a Prometheus scrape endpoint."""
    from ..obs import serve

    bound: dict = {}

    def ready(ports: dict) -> None:
        bound.update(ports)
        print(
            f"serving sessions on {args.host}:{ports['port']}  "
            f"metrics on http://{args.host}:{ports['http_port']}/metrics",
            flush=True,
        )

    service = serve.run_server(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        events_path=args.events,
        window_s=args.window,
        log_level=args.log_level,
        ready=ready,
    )
    return (
        f"serve stopped after {service.events.seq} events "
        f"({len(service.sessions)} sessions still open)"
    )


__all__ = ["cmd_serve"]
