"""TraceLog against a plain-list reference model.

The state machine drives every public knob of :class:`repro.sim.trace.TraceLog`
in random order — keyword emits and schema stages, ``enabled`` flips, the
``max_records`` cap, explicit compaction, sink flushes, auxiliary records,
and sinks attached mid-stream — and holds the log to a
reference that is nothing but Python lists:

* the retained records, in stream order;
* ``dropped``, counted from the rules alone;
* one expected stream per sink: every record staged while it was attached
  — retained or past the cap — plus the ``trace_capped`` meta marker and
  every ``write_record``, in order.

A sink may lag its expected stream (records reach sinks in batches) but
must always hold a prefix of it, and after ``flush_sinks`` and at
teardown it must hold all of it.  Packed sizes come from
the ring format written out here (16-byte head, 5 bytes per field, 8 per
float or i64, 4 per interned string or side-table object), not from
:class:`~repro.obs.telemetry.BinaryTraceRing`.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.obs.telemetry import RecordSchema
from repro.sim import Simulator

SCHEMA = RecordSchema("model.schema", ("a", "b", "c"))

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=3),
)
kwargs = st.dictionaries(st.sampled_from(["a", "b", "node", "x", "zz"]), values, max_size=4)


def packed_size(fields):
    size = 16
    for _key, value in fields:
        size += 5
        if value is None or type(value) is bool:
            continue
        if type(value) is float or (type(value) is int and -(2**63) <= value < 2**63):
            size += 8
        else:
            size += 4
    return size


class ListSink:
    def __init__(self):
        self.got = []

    def write(self, record):
        self.got.append(dict(record))

    def flush(self):
        pass

    def close(self):
        pass


class TraceLogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.trace = self.sim.trace
        self.retained = []  # (time, category, fields) in stream order
        self.dropped = 0
        self.enabled = True
        self.max_records = self.trace.max_records
        self.warned_capped = False
        self.expected = {}  # attached sink -> its expected stream
        self.aux = 0

    # ------------------------------------------------------------ reference

    def _to_sinks(self, record):
        for stream in self.expected.values():
            stream.append(record)

    def _staged(self, category, fields):
        if not self.enabled:
            return
        record = (self.sim.now, category, fields)
        if len(self.retained) < self.max_records:
            self.retained.append(record)
        else:
            self.dropped += 1
            if not self.warned_capped:
                self.warned_capped = True
                self._to_sinks(
                    {
                        "type": "meta",
                        "event": "trace_capped",
                        "time": self.sim.now,
                        "max_records": self.max_records,
                    }
                )
        payload = {"type": "trace", "time": self.sim.now, "category": category}
        payload.update(fields)
        self._to_sinks(payload)

    # ---------------------------------------------------------------- rules

    @rule(
        category=st.sampled_from(["evt", "net.tx", "fault"]),
        fields=kwargs,
        repeat=st.integers(1, 4),
    )
    def emit(self, category, fields, repeat):
        for _ in range(repeat):
            self.sim.now += 0.5
            self.trace.emit(category, **fields)
            self._staged(category, tuple(sorted(fields.items())))

    @rule(a=values, b=values, c=values, repeat=st.integers(1, 4))
    def stage_schema(self, a, b, c, repeat):
        for _ in range(repeat):
            self.sim.now += 0.5
            self.trace.stage((self.sim.now, SCHEMA.sid, a, b, c))
            self._staged(SCHEMA.category, (("a", a), ("b", b), ("c", c)))

    @rule(on=st.booleans())
    def set_enabled(self, on):
        self.trace.enabled = on
        self.enabled = on

    @rule(cap=st.integers(0, 24))
    def set_max_records(self, cap):
        self.trace.max_records = cap
        self.max_records = cap

    @rule()
    def compact(self):
        nbytes = self.trace.compact()
        assert nbytes == sum(packed_size(rec[2]) for rec in self.retained)

    @rule()
    def flush_sinks(self):
        self.trace.flush_sinks()
        for sink, stream in self.expected.items():
            assert sink.got == stream

    @rule()
    def write_record(self):
        self.aux += 1
        record = {"type": "aux", "n": self.aux}
        self.trace.write_record(record)
        self._to_sinks(record)

    @initialize()
    def first_sink(self):
        # Most runs start with a sink, so a loss shows up without first
        # having to draw one.
        self.add_sink()

    @rule()
    def add_sink(self):
        sink = ListSink()
        self.trace.add_sink(sink)
        self.expected[sink] = []

    @rule()
    def read_records(self):
        got = [(r.time, r.category, r.fields) for r in self.trace.records]
        assert got == self.retained

    # ----------------------------------------------------------- invariants

    @invariant()
    def counts_match(self):
        assert len(self.trace) == len(self.retained)
        assert self.trace.dropped == self.dropped

    @invariant()
    def sinks_hold_a_prefix(self):
        for sink, stream in self.expected.items():
            assert sink.got == stream[: len(sink.got)]

    def teardown(self):
        self.trace.flush_sinks()
        for sink, stream in self.expected.items():
            assert sink.got == stream
        got = [(r.time, r.category, r.fields) for r in self.trace.records]
        assert got == self.retained


TraceLogMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None
)
TestTraceLogModel = TraceLogMachine.TestCase
