"""Display subsystem substrate on the evaluation path: refresh timing and
the window plans the schemes fill (paper Secs. 2.3-2.4).

The functional device models -- the eDP link (``display.edp``), the
display controller (``display.controller``), the panel T-con and its
remote frame buffers (``display.panel``, ``display.rfb``,
``display.pixel_formatter``), DSC and the PSR/PSR2 engine -- are not
re-exported here and no exhibit runs them. Import them from their own
modules."""

from .timing import RefreshTiming, WindowKind, WindowPlan

__all__ = [
    "RefreshTiming",
    "WindowKind",
    "WindowPlan",
]
