"""Seeded workloads and the independent byte model that checks them.

A workload is a preload (object sizes) plus an endless stream of
operations drawn from a seeded ``random.Random``.  The stream reads the
model's current sizes to pick valid offsets, so the same seed always
yields the same operations in the same order.  The model is a plain
``bytearray`` per object (plus a saved copy of every retained version
when the workload versions), written here without any code from the
program under test.

An operation is a tuple ``(kind, idx, offset, length, data, version)``:

* ``read``    -- ``length`` bytes at ``offset`` of the current content;
* ``sread``   -- a snapshot read of the retained ``version``;
* ``write``   -- overwrite ``data`` at ``offset`` (size unchanged);
* ``insert``  -- insert ``data`` at ``offset``;
* ``delete``  -- remove ``length`` bytes at ``offset``;
* ``append``  -- append ``data``;
* ``stat``    -- the object's size and layout.

``idx`` indexes the preloaded objects in creation order.
:func:`perform` issues an operation against a client or a database.
"""

from __future__ import annotations

import random

KB = 1024
MB = 1024 * KB

#: Operations that change an object (and, with versioning, publish one
#: version each).
MUTATIONS = frozenset({"write", "insert", "delete", "append"})
READS = frozenset({"read", "sread"})


def perform(target, oids: list[int], op: tuple):
    """Issue one operation through the ``ObjectOps`` surface.

    ``target`` is an ``EOSClient`` (over the wire) or an ``EOSDatabase``
    (in process); both expose the same ``op_*`` methods.
    """
    kind, idx, offset, length, data, version = op
    oid = oids[idx]
    if kind == "read":
        return target.op_read(oid, offset=offset, length=length)
    if kind == "sread":
        return target.op_read(oid, offset=offset, length=length, version=version)
    if kind == "write":
        return target.op_write(oid, data, offset=offset)
    if kind == "insert":
        return target.op_insert(oid, data, offset=offset)
    if kind == "delete":
        return target.op_delete(oid, offset=offset, length=length)
    if kind == "append":
        return target.op_append(oid, data)
    if kind == "stat":
        return target.op_stat(oid)
    raise ValueError(f"unknown operation {kind!r}")


class OracleMismatch(AssertionError):
    """The program returned something the model says it should not."""


class Model:
    """Expected content of every object, independent of the program."""

    def __init__(self, retain: int = 0) -> None:
        self.objects: list[bytearray] = []
        #: Per object: the latest published version number and the saved
        #: copies of the retained ones (empty unless ``retain`` > 0).
        self.version: list[int] = []
        self.saved: list[dict[int, bytes]] = []
        self.retain = retain

    def create(self, data: bytes) -> int:
        self.objects.append(bytearray(data))
        # A versioned CREATE publishes v1 (empty) and v2 (the content).
        self.version.append(2)
        self.saved.append({1: b"", 2: bytes(data)} if self.retain else {})
        return len(self.objects) - 1

    def size(self, idx: int) -> int:
        return len(self.objects[idx])

    def expect_read(self, op: tuple) -> bytes:
        kind, idx, offset, length, _data, version = op
        if kind == "sread":
            return self.saved[idx][version][offset:offset + length]
        return bytes(self.objects[idx][offset:offset + length])

    def apply(self, op: tuple) -> int:
        """Apply a mutation; returns the object's new size."""
        kind, idx, offset, length, data, _version = op
        obj = self.objects[idx]
        if kind == "write":
            obj[offset:offset + len(data)] = data
        elif kind == "insert":
            obj[offset:offset] = data
        elif kind == "delete":
            del obj[offset:offset + length]
        elif kind == "append":
            obj += data
        else:
            raise ValueError(f"not a mutation: {kind}")
        if self.retain:
            version = self.version[idx] + 1
            self.version[idx] = version
            saved = self.saved[idx]
            saved[version] = bytes(obj)
            saved.pop(version - self.retain, None)
        return len(obj)

    def retained(self, idx: int) -> list[int]:
        return sorted(self.saved[idx])

    def live_bytes(self) -> int:
        return sum(len(obj) for obj in self.objects)


def check(what: str, got, expected) -> None:
    """Raise :class:`OracleMismatch` unless ``got == expected``."""
    if got != expected:
        if isinstance(expected, (bytes, bytearray)):
            first = next(
                (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                min(len(got), len(expected)),
            )
            detail = (f"{len(got)} bytes vs {len(expected)} expected, "
                      f"first difference at byte {first}")
        else:
            detail = f"{got!r} vs {expected!r} expected"
        raise OracleMismatch(f"{what}: {detail}")


class Workload:
    """Base: a preload plus a weighted mix of operation makers."""

    name = ""
    #: Volume size passed to the server (pages of 4 KiB) and version
    #: retention (0 = versioning off).
    pages = 16_250
    retain = 0
    #: Untimed operations between preload and the measured phase.
    warmup_ops = 0
    #: Operations whose counters are reported: every run completes this
    #: many, so per-op counts and ``space_amp`` repeat exactly per seed.
    counted_ops = 0
    #: Operations per round; a run stops only on a round boundary.
    round_ops = 0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def preload_sizes(self) -> list[int]:
        raise NotImplementedError

    def preload(self) -> list[bytes]:
        return [self.rng.randbytes(n) for n in self.preload_sizes()]

    def next_ops(self, model: Model) -> list[tuple]:
        """The next operation(s); most makers return one."""
        raise NotImplementedError

    # Helpers shared by the makers.
    def _obj(self, model: Model) -> int:
        return self.rng.randrange(len(model.objects))

    def _range(self, model: Model, idx: int, length: int) -> tuple[int, int]:
        size = model.size(idx)
        length = min(length, size)
        return self.rng.randint(0, size - length), length


class PointMix(Workload):
    """2 KB READ / 2 KB WRITE / STAT over ~1000 objects of 4-32 KB."""

    name = "point-mix"
    warmup_ops = 500
    counted_ops = 4000
    round_ops = 250

    def preload_sizes(self) -> list[int]:
        return [self.rng.randint(4 * KB, 32 * KB) for _ in range(1000)]

    def next_ops(self, model: Model) -> list[tuple]:
        idx = self._obj(model)
        r = self.rng.random()
        if r < 0.45:
            offset, length = self._range(model, idx, 2 * KB)
            return [("read", idx, offset, length, None, None)]
        if r < 0.70:
            offset, length = self._range(model, idx, 2 * KB)
            return [("write", idx, offset, length,
                     self.rng.randbytes(length), None)]
        return [("stat", idx, 0, 0, None, None)]


class LargeScan(Workload):
    """1 MB range READs and 64 KB APPENDs over 8 objects of 8 MB."""

    name = "large-scan"
    pages = 3 * 16_250
    warmup_ops = 20
    counted_ops = 400
    round_ops = 20

    def preload_sizes(self) -> list[int]:
        return [8 * MB] * 8

    #: Appends stop short of filling the tail segment the preload left
    #: (8 MB objects take 16 MB of pages), so the volume never fills and
    #: the allocator stays idle however fast the server runs.
    max_size = 15 * MB

    def next_ops(self, model: Model) -> list[tuple]:
        idx = self._obj(model)
        if self.rng.random() < 0.9 or model.size(idx) >= self.max_size:
            offset, length = self._range(model, idx, 1 * MB)
            return [("read", idx, offset, length, None, None)]
        return [("append", idx, 0, 64 * KB, self.rng.randbytes(64 * KB), None)]


class VersionedEdit(Workload):
    """Mid-object edits on 16 versioned objects of 64-512 KB, with
    current and snapshot reads."""

    name = "versioned-edit"
    retain = 8
    warmup_ops = 50
    counted_ops = 1000
    round_ops = 50

    def preload_sizes(self) -> list[int]:
        # Evenly spaced sizes in a seeded order: with only 16 objects, a
        # random draw would make the space held by retained versions,
        # and so space_amp, differ from seed to seed.
        sizes = [64 * KB + i * (448 * KB) // 15 for i in range(16)]
        self.rng.shuffle(sizes)
        return sizes

    def next_ops(self, model: Model) -> list[tuple]:
        # Reads are 60% of the operations, so the median operation is a
        # read, not a point between the read and the write latencies.
        idx = self._obj(model)
        r = self.rng.random()
        if r < 0.40:
            offset, length = self._range(model, idx, 8 * KB)
            return [("read", idx, offset, length, None, None)]
        if r < 0.60:
            current = model.version[idx]
            # v1 is the empty object; never read back the current one.
            older = [v for v in model.retained(idx) if 2 <= v < current]
            if older:
                version = self.rng.choice(older)
                size = len(model.saved[idx][version])
                length = min(8 * KB, size)
                offset = self.rng.randint(0, size - length)
                return [("sread", idx, offset, length, None, version)]
            offset, length = self._range(model, idx, 8 * KB)
            return [("read", idx, offset, length, None, None)]
        length = 4 * KB
        # Inserts and deletes are the same size; a small object only
        # grows, so no object ever shrinks below 16 KB.
        if r < 0.74 or (r < 0.87 and model.size(idx) < 16 * KB):
            offset = self.rng.randint(0, model.size(idx))
            return [("insert", idx, offset, length,
                     self.rng.randbytes(length), None)]
        if r < 0.87:
            offset, length = self._range(model, idx, length)
            return [("delete", idx, offset, length, None, None)]
        offset, length = self._range(model, idx, length)
        return [("write", idx, offset, length, self.rng.randbytes(length), None)]


class SmallChurn(Workload):
    """~1000 small objects recycled in place, plus small appends,
    partial deletes and reads."""

    name = "small-churn"
    warmup_ops = 200
    counted_ops = 1000
    round_ops = 100

    def preload_sizes(self) -> list[int]:
        return [self.rng.randint(4 * KB, 32 * KB) for _ in range(1000)]

    def next_ops(self, model: Model) -> list[tuple]:
        idx = self._obj(model)
        r = self.rng.random()
        if r < 0.45:
            offset, length = self._range(model, idx, 2 * KB)
            return [("read", idx, offset, length, None, None)]
        if r < 0.65:
            # There is no wire opcode to destroy an object, so an object
            # is recycled: delete all its content, append new content.
            new = self.rng.randbytes(self.rng.randint(4 * KB, 32 * KB))
            return [("delete", idx, 0, model.size(idx), None, None),
                    ("append", idx, 0, len(new), new, None)]
        # A partial delete leaves at least 2 KB, so every object can
        # serve a 2 KB read.
        if r < 0.83 or model.size(idx) < 4 * KB:
            return [("append", idx, 0, 4 * KB, self.rng.randbytes(4 * KB), None)]
        offset, length = self._range(model, idx, 2 * KB)
        return [("delete", idx, offset, length, None, None)]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PointMix, LargeScan, VersionedEdit, SmallChurn)
}
