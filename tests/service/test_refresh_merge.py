"""``protocol.merge_refreshes``: a read's REFRESH frames, joined by run.

The cluster router routes each run of consecutive frames that agree on
``source_id``, ``resync`` and ``map_epoch`` as one frame.  Over generated
reads — frames of one to four entries, each optional field absent or
present (``resync`` and ``map_epoch`` also present at their defaults,
which must not join with absent ones), ``sent_at`` on some frames only,
numbers as ints and floats — the joined frames must:

* pass ``validate_message``;
* split exactly where ``(source_id, resync, map_epoch)`` changes;
* be the frame itself, with no stamps, for a run of one;
* carry the run's columns concatenated in order, the run's first frame's
  other fields, and the earliest ``sent_at`` the run carries (none if no
  frame does);
* leave the input frames as they were;

and a pick of a joined frame's entries (``refresh_entries`` with its
stamps) must carry the earliest ``sent_at`` of the frames its entries
came from.
"""

import copy
import itertools
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.service import protocol  # noqa: E402
from repro.service.protocol import MessageType  # noqa: E402

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

NUMBERS = st.one_of(st.integers(-1000, 1000),
                    st.floats(-1e6, 1e6, allow_nan=False))
ABSENT = object()


@st.composite
def frames(draw):
    size = draw(st.integers(1, 4))
    frame = {"v": protocol.PROTOCOL_VERSION,
             "type": MessageType.REFRESH.value,
             "source_id": draw(st.integers(0, 1)),
             "items": draw(st.lists(st.sampled_from("abcde"), min_size=size,
                                    max_size=size)),
             "values": draw(st.lists(NUMBERS, min_size=size, max_size=size)),
             "seqs": draw(st.lists(st.integers(0, 50), min_size=size,
                                   max_size=size))}
    for name, values in (("resync", st.sampled_from([ABSENT, True, False])),
                         ("map_epoch", st.sampled_from([ABSENT, 0, 1])),
                         ("sent_at", st.one_of(st.just(ABSENT), NUMBERS))):
        value = draw(values)
        if value is not ABSENT:
            frame[name] = value
    return frame


READS = st.lists(frames(), min_size=1, max_size=8)


def key(frame):
    return (frame["source_id"], frame.get("resync"), frame.get("map_epoch"))


@given(READS)
def test_joined_frames_are_the_runs_concatenated(read):
    pristine = copy.deepcopy(read)
    joined = protocol.merge_refreshes(read)
    runs = [list(run) for _, run in itertools.groupby(read, key=key)]
    assert len(joined) == len(runs)
    for (frame, stamps), run in zip(joined, runs):
        assert protocol.validate_message(frame) is MessageType.REFRESH
        assert key(frame) == key(run[0])
        if len(run) == 1:
            assert frame is run[0] and stamps is None
            continue
        for column in ("items", "values", "seqs"):
            assert frame[column] == [entry for part in run
                                     for entry in part[column]]
        sent = [part["sent_at"] for part in run if "sent_at" in part]
        assert frame.get("sent_at") == (min(sent) if sent else None)
        rest = {name: value for name, value in run[0].items()
                if name not in ("items", "values", "seqs", "sent_at")}
        assert {name: value for name, value in frame.items()
                if name not in ("items", "values", "seqs", "sent_at")} == rest
        assert stamps == [part.get("sent_at") for part in run
                          for _ in part["items"]]
    assert read == pristine


@given(READS, st.data())
def test_a_pick_is_stamped_by_the_frames_it_came_from(read, data):
    for frame, stamps in protocol.merge_refreshes(read):
        if stamps is None:
            continue
        picked = sorted(data.draw(st.sets(
            st.integers(0, len(frame["items"]) - 1), min_size=1)))
        sub = protocol.refresh_entries(frame, picked, stamps)
        assert protocol.validate_message(sub) is MessageType.REFRESH
        assert sub["items"] == [frame["items"][i] for i in picked]
        sent = [stamps[i] for i in picked if stamps[i] is not None]
        assert sub.get("sent_at") == (min(sent) if sent else None)
