"""Run fingerprints: one key per run, and a new key for any change.

``run_fingerprint`` streams a type-tagged encoding of the run into
SHA-256, feeding a list of one dataclass type column by column.  These
properties pin what that encoding must keep apart (any field of any
frame, ``-0.0`` from ``0.0``, an int-valued float from the int, a bool
from the int) and what it must not (a list, a tuple and a
``ListFrameSource`` of the same frames).
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FHD, skylake_tablet
from repro.pipeline import ConventionalScheme
from repro.pipeline.sim import (
    VrWork,
    _digest,
    _feed_sequence,
    run_fingerprint,
)
from repro.video.source import (
    ContentAttributes,
    FrameDescriptor,
    FrameType,
    ListFrameSource,
)

CONFIG = skylake_tablet(FHD)
SCHEME = ConventionalScheme()

sizes = st.floats(
    min_value=1.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
attributes = st.builds(
    ContentAttributes,
    apl=st.floats(min_value=0.0, max_value=1.0),
    bitrate_tier=st.integers(min_value=0, max_value=7),
    stalled=st.booleans(),
)


@st.composite
def frame_lists(draw, min_count=1):
    """Frame lists without attributes, with them on every frame, or
    mixing ``None`` with attributes."""
    with_attributes = draw(st.sampled_from(["none", "all", "mixed"]))
    attribute = {
        "none": st.none(),
        "all": attributes,
        "mixed": st.one_of(st.none(), attributes),
    }[with_attributes]
    count = draw(st.integers(min_value=min_count, max_value=12))
    return [
        FrameDescriptor(
            index=index,
            frame_type=draw(st.sampled_from(list(FrameType))),
            encoded_bytes=draw(sizes),
            decoded_bytes=draw(sizes),
            attributes=draw(attribute),
        )
        for index in range(count)
    ]


def key(frames, vr_work=None):
    fingerprint = run_fingerprint(
        CONFIG, SCHEME, frames, 30.0, vr_work=vr_work
    )
    assert fingerprint is not None
    return fingerprint


def changed(value):
    """A different value of the same type."""
    if isinstance(value, FrameType):
        members = list(FrameType)
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value > 0.5 else value + 0.25
    raise AssertionError(f"no change for {value!r}")


def variants(frame):
    """``frame`` with each one of its fields changed in turn."""
    for field in dataclasses.fields(FrameDescriptor):
        value = getattr(frame, field.name)
        if field.name != "attributes":
            yield dataclasses.replace(frame, **{field.name: changed(value)})
        elif value is None:
            yield dataclasses.replace(frame, attributes=ContentAttributes())
        else:
            yield dataclasses.replace(frame, attributes=None)
            for inner in dataclasses.fields(ContentAttributes):
                yield dataclasses.replace(
                    frame,
                    attributes=dataclasses.replace(
                        value,
                        **{inner.name: changed(getattr(value, inner.name))},
                    ),
                )


@settings(max_examples=60, deadline=None)
@given(frame_lists(), st.data())
def test_any_field_of_any_frame_changes_the_key(frames, data):
    position = data.draw(st.integers(min_value=0, max_value=len(frames) - 1))
    baseline = key(frames)
    assert key([dataclasses.replace(f) for f in frames]) == baseline
    for variant in variants(frames[position]):
        mutated = list(frames)
        mutated[position] = variant
        assert key(mutated) != baseline, variant


@settings(max_examples=30, deadline=None)
@given(frame_lists())
def test_list_tuple_and_source_share_one_key(frames):
    assert (
        key(frames)
        == key(tuple(frames))
        == key(ListFrameSource(tuple(frames)))
    )


@settings(max_examples=30, deadline=None)
@given(frame_lists())
def test_signed_zero_is_its_own_value(frames):
    zero = [
        dataclasses.replace(f, attributes=ContentAttributes(apl=0.0))
        for f in frames
    ]
    negative = list(zero)
    negative[0] = dataclasses.replace(
        frames[0], attributes=ContentAttributes(apl=-0.0)
    )
    assert key(zero) != key(negative)
    projection = [VrWork(1.0, 0.0, 1.0) for _ in frames]
    flipped = [VrWork(1.0, -0.0, 1.0)] + projection[1:]
    assert key(frames, projection) != key(frames, flipped)
    assert _digest(0.0) != _digest(-0.0)


@settings(max_examples=30, deadline=None)
@given(frame_lists(min_count=2), st.integers(min_value=1, max_value=10**6))
def test_numeric_types_are_kept_apart(frames, size):
    as_float = [
        dataclasses.replace(f, encoded_bytes=float(size)) for f in frames
    ]
    as_int = [dataclasses.replace(f, encoded_bytes=size) for f in frames]
    one_int = [as_int[0]] + as_float[1:]
    assert len({key(as_float), key(as_int), key(one_int)}) == 3
    flags = [
        dataclasses.replace(f, attributes=ContentAttributes(stalled=True))
        for f in frames
    ]
    ones = [
        dataclasses.replace(f, attributes=ContentAttributes(stalled=1))
        for f in frames
    ]
    assert key(flags) != key(ones)
    assert _digest(True) != _digest(1) and _digest(1) != _digest(1.0)


@settings(max_examples=30, deadline=None)
@given(frame_lists(), st.integers(min_value=2**63, max_value=2**80))
def test_index_beyond_int64_fingerprints(frames, index):
    huge = list(frames)
    huge[-1] = dataclasses.replace(frames[-1], index=index)
    baseline = key(huge)
    huge[-1] = dataclasses.replace(frames[-1], index=index + 1)
    assert key(huge) != baseline
    assert baseline != key(frames)


@dataclasses.dataclass(frozen=True)
class TaggedFrame(FrameDescriptor):
    """A frame subclass with no fields of its own."""


def sub_tag(items):
    """The form tag the sequence encoder chose for ``items``."""
    chunks = []
    _feed_sequence(items, chunks.append)
    return chunks[1][:1]


@settings(max_examples=30, deadline=None)
@given(frame_lists(min_count=2))
def test_frame_subclass_takes_the_item_path(frames):
    assert sub_tag(frames) == b"c"
    tagged = [TaggedFrame(**vars(frames[0]))] + frames[1:]
    assert sub_tag(tagged) == b"x"
    assert key(tagged) != key(frames)
    assert key(tagged) == key(list(tagged))


def test_mapping_and_set_order_is_canonical():
    forward = {f"k{i}": i for i in range(50)}
    backward = dict(reversed(list(forward.items())))
    assert _digest(forward) == _digest(backward)
    assert _digest(set(forward)) == _digest(frozenset(backward))
    assert _digest(forward) != _digest({**forward, "k0": 1})
