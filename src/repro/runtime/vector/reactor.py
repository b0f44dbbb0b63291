"""Vector reactor: one compiled module, many instances, numpy matrices.

:class:`VectorReactor` runs ``n`` independent instances of one EFSM in
lockstep macro-steps.  Per-instance state is one row of three matrices
— ``P`` (presence, uint8), ``S`` (scalar slots, int64) and ``D``
(byte-accurate storage, uint8) — laid out column-for-column like the
scalar :class:`~repro.runtime.native.NativeReactor` arrays.  Each
instant the sweep:

1. zeroes ``P`` and injects the per-instance random stimulus (drawn
   with the exact rng consumption of the scalar trace drivers, so
   traces match instant for instant);
2. groups the live instances by current state and calls that state's
   ``_vs<N>`` function (:func:`~repro.runtime.vector.lower
   .compile_vector`) on gathered row copies — scattering the results
   back only on success;
3. falls back per instance to the resident scalar
   :class:`~repro.runtime.native.NativeReactor` for states the vector
   subset cannot express and for groups where a
   :class:`~repro.runtime.vector.lower.VectorFault` guard fired (the
   scalar re-run reproduces the exact per-instance
   :class:`~repro.errors.EvalError`);
4. marks per-instance coverage with plain array scatters and, when
   records are requested, decodes emit masks into the same farm-format
   record dicts the scalar engine produces.

Equivalence contract: for any random :class:`StimulusSpec` and seed
list, lane ``i`` of a sweep produces the records, coverage bitmap,
instant count and termination status that ``NativeReactor.run_trace``
produces for seed ``i`` — the farm's vector engine leans on this to
report one :class:`~repro.farm.jobs.SimResult` per job from one sweep.
"""

from __future__ import annotations

import random as _random
import traceback
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ...errors import EclError, EvalError
from ...lang.types import BoolType
from ..memory import _BASE_ADDRESS, decode_scalar
from ..native import NativeReactor, _driver_alphabet
from .lower import VectorFault, compile_vector
from .vrandom import VecRandom, supports_range

_I64 = np.int64
_U8 = np.uint8


def _vdiv(x, y):
    """C truncating division over numpy's floor division (sign trick).
    Callers guarantee ``y`` has no zero in any lane."""
    q = np.abs(x) // np.abs(y)
    return np.where((x < 0) != (y < 0), -q, q)


def _vrem(x, y):
    return x - _vdiv(x, y) * y


def _as_i64(a):
    return a.astype(_I64)


def _ones(k):
    return np.ones(k, np.bool_)


def _st(dst, src, m):
    """Masked in-place store (generated code's ``_st``): the lowered
    equivalent of ``dst = np.where(m, src, dst)`` without allocating,
    with assignment's unsafe casting (int64 values into uint8 bytes)."""
    np.copyto(dst, src, where=m, casting="unsafe")


def _stc(D, dst, src, n, m):
    """Masked aggregate copy of ``n`` bytes from column range ``src``
    to ``dst``; copies the source first when the ranges overlap."""
    block = D[:, src : src + n]
    if abs(dst - src) < n:
        block = block.copy()
    np.copyto(D[:, dst : dst + n], block, where=m[:, None], casting="unsafe")


def _wrap_rows(raw, ctype):
    """Vectorized ``ctype.wrap`` over an int64 array."""
    if isinstance(ctype, BoolType):
        return (raw != 0).astype(_I64)
    mask = (1 << (8 * ctype.size)) - 1
    if not ctype.signed:
        return raw & mask
    offset = 1 << (8 * ctype.size - 1)
    return ((raw + offset) & mask) - offset


def derive_seed(spec, index):
    """Deterministic per-instance seed for a standalone sweep.

    Delegates to :func:`repro.engines.derive_spec_seed` — the one
    canonical recipe — so instance ``i`` of ``run_specs(spec, n)`` is
    reproducible from the spec alone on *any* engine's ``run_spec``.
    """
    from ...engines import derive_spec_seed

    return derive_spec_seed(spec, index)


@dataclass
class SweepOutcome:
    """Per-instance results of one :meth:`VectorReactor.run_specs`
    sweep.  Errored lanes mirror a scalar error job: ``errors[i]`` is
    the message, and their records/coverage/instants are discarded."""

    instants: List[int]
    terminated: List[bool]
    emitted_events: List[int]
    errors: List[Optional[str]]
    #: per-instance farm-format record lists (None unless requested,
    #: and None per lane on error).
    records: Optional[list] = None
    #: per-instance CoverageMap (None unless requested / lane errored).
    coverage: Optional[list] = None
    #: ``coverage="raw"`` form: ``(states, transitions, emits)`` uint8
    #: matrices, one lane per row (errored lanes zeroed).  Rows are
    #: bitmap-compatible with :class:`~repro.verify.coverage
    #: .CoverageMap` byte layout, so consumers hex/OR them directly.
    raw_coverage: Optional[tuple] = None

    def __len__(self):
        return len(self.instants)


class VectorReactor:
    """Many instances of one EFSM advanced by masked numpy step
    functions, scalar-exact (see module docstring for the contract)."""

    def __init__(self, efsm, code=None, vcode=None):
        self.efsm = efsm
        self.module = efsm.module
        self.template = NativeReactor(efsm, code=code)
        self.code = self.template.code
        if vcode is None:
            vcode = compile_vector(efsm, self.code)
        if vcode.module != self.code.module:
            raise EvalError(
                "vector bundle %r does not match native bundle %r"
                % (vcode.module, self.code.module)
            )
        self.vcode = vcode

        # Snapshot the template's post-init state: every sweep row
        # starts from these.  The width covers every allocated byte
        # even if zero-initialized storage was never physically
        # extended.
        space = self.template.space
        width = max(len(space._data), _BASE_ADDRESS + space.allocated_bytes)
        if len(space._data) < width:
            space._data.extend(bytes(width - len(space._data)))
        self.width = width
        self._d0 = np.frombuffer(bytes(space._data), _U8)
        self._s0 = np.array(self.template._slots, dtype=_I64)

        self._vfuncs = self._bind(vcode)

        # Stimulus plan: the drivable alphabet in declaration order
        # (identical rng consumption to the scalar trace drivers).
        plan = []
        for name, pure, pidx, sidx, ctype in _driver_alphabet(self.module, self.code):
            base = -1
            if not pure and sidx < 0:
                base = self.template.signals[name].lvalue.address
            plan.append((name, pure, pidx, sidx, ctype, base))
        self._inject_plan = tuple(plan)

        # Emit-mask decoding for records mode.
        out_value = {}
        for name, _bit in self.code.output_bits:
            signal = self.template.signals[name]
            if signal.is_pure:
                continue
            if signal.sidx >= 0:
                out_value[name] = ("slot", name, signal.sidx, None)
            else:
                base = signal.lvalue.address
                if signal.type.is_scalar():
                    out_value[name] = ("mem", name, base, signal.type)
                else:
                    out_value[name] = ("agg", name, base, signal.type.size)
        self._out_value = out_value
        self._mask_cache = {}

        # Coverage layout (matches CoverageMap.for_efsm / the scalar
        # engine's emit probe: every non-input signal's presence).
        self._emit_names = tuple(sorted(efsm.emitted_signals()))
        eindex = {name: i for i, name in enumerate(self._emit_names)}
        probe = []
        for signal in self.template.signals:
            if signal.direction != "input" and signal.name in eindex:
                probe.append((signal.pidx, eindex[signal.name]))
        self._emit_probe = tuple(probe)
        self._transition_count = len(efsm.transition_table())

    # ------------------------------------------------------------------

    def _bind(self, vcode):
        namespace = {
            "_w": np.where,
            "_any": np.any,
            "_i8": _as_i64,
            "_ones": _ones,
            "_vdiv": _vdiv,
            "_vrem": _vrem,
            "_st": _st,
            "_stc": _stc,
            "_VF": VectorFault,
        }
        for pyname, kind, name in vcode.bases:
            if kind == "var":
                namespace[pyname] = self.template.env.lookup(name).lvalue.address
            else:
                namespace[pyname] = self.template.signals[name].lvalue.address
        exec(vcode.compiled(), namespace)
        funcs = namespace["VSTATE_FUNCS"]
        # Which state bodies contain fault guards: only those need a
        # rollback snapshot before running on in-place views.
        flags = [False] * len(funcs)
        current = None
        for line in vcode.source.splitlines():
            if line.startswith("def _vs"):
                current = int(line[7 : line.index("(")])
            elif current is not None and "_VF" in line:
                flags[current] = True
        self._can_fault = flags
        return funcs

    def describe(self):
        return self.vcode.describe()

    # -- records-mode decoding -----------------------------------------

    def _decode(self, mask):
        names = []
        valued = []
        for name, bit in self.code.output_bits:
            if mask & bit:
                names.append(name)
                spec = self._out_value.get(name)
                if spec is not None:
                    valued.append(spec)
        names.sort()
        entry = (tuple(names), tuple(valued))
        self._mask_cache[mask] = entry
        return entry

    def _read_value(self, spec, row, S2, D2):
        kind = spec[0]
        if kind == "slot":
            return int(S2[row, spec[2]])
        base = spec[2]
        if kind == "mem":
            ctype = spec[3]
            raw = D2[row, base : base + ctype.size].tobytes()
            return decode_scalar(raw, ctype)
        size = spec[3]
        return "0x" + D2[row, base : base + size].tobytes().hex()

    # -- scalar fallback path ------------------------------------------

    def _rebuild_template(self):
        """A lane's scalar re-run raised: the shared template reactor
        (evaluator scopes, address space) may be mid-statement dirty,
        so rebuild it.  Allocation is deterministic, so every base
        address burned into the vector namespace stays valid."""
        self.template = NativeReactor(self.efsm, code=self.code)
        space = self.template.space
        if len(space._data) < self.width:
            space._data.extend(bytes(self.width - len(space._data)))

    def _scalar_step(self, P2, S2, D2, entry, row):
        """Run one instant of one lane through the resident scalar
        reactor; copies the row in, runs the state function, copies the
        row back (only on success — the caller leaves the lane's
        matrices untouched when this raises)."""
        tmpl = self.template
        tmpl._present[:] = P2[row].tolist()
        if tmpl._slots:
            tmpl._slots[:] = S2[row].tolist()
        # In-place so the exec namespace's D binding stays valid (a
        # fallback's VarDecl may have grown _data past width; slice
        # assignment shrinks it back).
        tmpl.space._data[:] = D2[row].tobytes()
        target, mask, packed = tmpl._funcs[entry]()
        P2[row] = tmpl._present
        if tmpl._slots:
            S2[row] = tmpl._slots
        D2[row] = np.frombuffer(tmpl.space._data, _U8, count=self.width)
        return int(target), int(mask), int(packed)

    # -- stimulus -------------------------------------------------------

    def _draw_stimulus(self, seeds, drawn, prob, low, high):
        """Presence and raw-value matrices ``(n_signals, drawn, n)``,
        drawn with the exact per-lane rng consumption of the scalar
        trace drivers.  Per-lane rngs are private, so drawing past a
        lane's termination is unobservable (the scalar driver simply
        stops consuming).  The fast path streams all lanes through the
        vectorized MT19937; value ranges wider than 32 bits fall back
        to per-lane ``random.Random`` objects."""
        plan = self._inject_plan
        n = len(seeds)
        if drawn and supports_range(low, high):
            vrng = VecRandom(seeds)
            pure_flags = tuple(pure for _name, pure, *_rest in plan)
            return vrng.draw_alphabet(pure_flags, prob, drawn, low, high)
        pres = np.zeros((len(plan), max(drawn, 1), n), _U8)
        vals = np.zeros((len(plan), max(drawn, 1), n), _I64)
        if not drawn:
            return pres, vals
        for i, seed in enumerate(seeds):
            rng = _random.Random(seed)
            rnd = rng.random
            rint = rng.randint
            for t in range(drawn):
                for j, (_name, pure, *_rest) in enumerate(plan):
                    if rnd() < prob:
                        pres[j, t, i] = 1
                        if not pure:
                            vals[j, t, i] = rint(low, high)
        return pres, vals

    # -- the sweep ------------------------------------------------------

    def run_specs(
        self,
        spec,
        n_instances=None,
        seeds=None,
        budget=0,
        coverage=False,
        records=False,
    ):
        """Sweep one random stimulus spec across many instances.

        ``seeds`` gives one rng seed per instance (the farm passes its
        per-job derived seeds); when omitted, ``n_instances`` seeds are
        derived deterministically from the spec (:func:`derive_seed`).
        ``budget`` is the per-instance instant budget (horizon) — same
        clip/pad semantics as the scalar trace drivers.  ``coverage``
        may be ``True`` (per-instance :class:`CoverageMap` list) or
        ``"raw"`` (bitmap matrices on ``raw_coverage`` — no per-lane
        map assembly, for vectorized consumers).  Returns a
        :class:`SweepOutcome` with one entry per instance.
        """
        if getattr(spec, "kind", "random") != "random":
            raise EvalError("vector sweeps need a random stimulus spec")
        if seeds is None:
            if n_instances is None:
                raise EvalError("run_specs needs seeds or n_instances")
            seeds = [derive_seed(spec, i) for i in range(n_instances)]
        seeds = list(seeds)
        n = len(seeds)
        if n == 0:
            return SweepOutcome([], [], [], [], [] if records else None,
                                [] if coverage is True else None)
        total = budget if budget and budget > 0 else spec.length
        drawn = min(spec.length, total)
        low, high = spec.value_range
        prob = spec.present_prob
        plan = self._inject_plan

        pres, vals = self._draw_stimulus(seeds, drawn, prob, low, high)
        wrapped = [
            None if pure else _wrap_rows(vals[j], ctype)
            for j, (_n, pure, _p, _s, ctype, _b) in enumerate(plan)
        ]

        # Per-instance machine state, kept *physically sorted by
        # current state*: ``perm[slot]`` is the original lane in matrix
        # row ``slot``, re-sorted each instant so every state group is
        # a contiguous zero-copy view (no per-group gather/scatter).
        # Dead (terminated/errored) slots get the ``DEAD`` sentinel
        # state and sink to the tail, where their rows stay frozen.
        DEAD = self.code.state_count + 1
        P2 = np.zeros((n, len(self.code.presence)), _U8)
        S2 = np.repeat(self._s0[None, :], n, axis=0)
        D2 = np.repeat(self._d0[None, :], n, axis=0)
        perm = np.arange(n)
        state = np.full(n, self.code.initial, _I64)
        dead = 0
        # Lane-indexed results.
        terminated = np.zeros(n, bool)
        errors = [None] * n
        instants = np.zeros(n, _I64)
        events = np.zeros(n, _I64)
        out_records = [[] for _ in range(n)] if records else None
        if coverage:
            cov_s = np.zeros((n, self.code.state_count), bool)
            cov_t = np.zeros((n, self._transition_count), bool)
            cov_e = np.zeros((n, len(self._emit_names)), bool)
            if self._emit_probe:
                probe_pidx = np.array([p for p, _e in self._emit_probe])
                probe_eidx = np.array([e for _p, e in self._emit_probe])
            if total > 0:
                # Every lane executes instant 0 in its initial state;
                # later states are marked on entry (the bitmap is
                # idempotent, so revisits need no re-mark).
                cov_s[:, self.code.initial] = True
        R = np.arange(n)
        NS = np.zeros(n, _I64)
        EM = np.zeros(n, _I64)
        PK = np.zeros(n, _I64)
        vfuncs = self._vfuncs
        #: lanes are in sorted-by-state order only when ``dirty`` was
        #: consumed; ``ident`` tracks whether ``perm`` is still the
        #: identity (the common all-lanes-in-one-hub-state sweep never
        #: permutes, so injection and bookkeeping skip every gather).
        dirty = False
        ident = True
        ran = 0

        for t in range(total):
            if dead >= n:
                break

            # 1. re-sort lanes by state when last instant moved any
            # (stable, so lane order inside a group — and the dead
            # tail — is deterministic).
            if dirty:
                if not bool(np.all(state[:-1] <= state[1:])):
                    order = np.argsort(state, kind="stable")
                    state = state[order]
                    perm = perm[order]
                    P2 = P2[order]
                    S2 = S2[order]
                    D2 = D2[order]
                    ident = False
                dirty = False
            a_n = n - dead
            lanes = R[:a_n] if ident else perm[:a_n]
            st = state[:a_n]

            # 2. stimulus injection into the live prefix.
            P2[:a_n] = 0
            if t < drawn:
                for j, (_name, pure, pidx, sidx, ctype, base) in enumerate(plan):
                    on = pres[j, t, : a_n] if ident else pres[j, t, lanes]
                    P2[:a_n, pidx] = on
                    if pure:
                        continue
                    hot = on != 0
                    wv = wrapped[j][t]
                    wv = wv[:a_n] if ident else wv[lanes]
                    if sidx >= 0:
                        S2[:a_n, sidx] = np.where(hot, wv, S2[:a_n, sidx])
                    else:
                        size = 1 if isinstance(ctype, BoolType) else ctype.size
                        for b in range(size):
                            col = D2[:a_n, base + b]
                            D2[:a_n, base + b] = np.where(
                                hot, (wv >> (8 * b)) & 255, col
                            )

            # 3. advance each contiguous state group in place.  Emit
            # masks are written sparsely (emit-free leaves skip the
            # store), so clear the live prefix first.
            EM[:a_n] = 0
            bad = []

            def scalar_span(a, b, entry):
                for slot in range(a, b):
                    try:
                        tgt, m, pk = self._scalar_step(P2, S2, D2, entry, slot)
                    except EclError as error:
                        errors[int(perm[slot])] = str(error)
                        bad.append(slot)
                        self._rebuild_template()
                        continue
                    except Exception:
                        errors[int(perm[slot])] = traceback.format_exc(limit=4)
                        bad.append(slot)
                        self._rebuild_template()
                        continue
                    NS[slot] = tgt
                    EM[slot] = m
                    PK[slot] = pk

            if a_n and st[0] == st[-1]:
                bounds = ((0, a_n),)
            else:
                cuts = (np.nonzero(np.diff(st))[0] + 1).tolist()
                bounds = tuple(zip([0] + cuts, cuts + [a_n]))
            for a, b in bounds:
                entry = int(st[a])
                func = vfuncs[entry]
                if func is None:
                    scalar_span(a, b, entry)
                    continue
                if not self._can_fault[entry]:
                    func(
                        b - a, P2[a:b], S2[a:b], D2[a:b],
                        NS[a:b], EM[a:b], PK[a:b], R[: b - a],
                    )
                    continue
                # The func runs on in-place views and may store into
                # rows before a later guard fires, so snapshot the
                # group for rollback (contiguous slice copies).
                bak = (P2[a:b].copy(), S2[a:b].copy(), D2[a:b].copy())
                try:
                    func(
                        b - a, P2[a:b], S2[a:b], D2[a:b],
                        NS[a:b], EM[a:b], PK[a:b], R[: b - a],
                    )
                except VectorFault:
                    # An active lane would fault: roll the group back
                    # and re-run it scalar for exact per-instance
                    # errors.
                    P2[a:b], S2[a:b], D2[a:b] = bak
                    scalar_span(a, b, entry)

            # 4. bookkeeping: coverage, instants, termination, records.
            if bad:
                okm = np.ones(a_n, bool)
                okm[bad] = False
                lanes_ok = lanes[okm]
                st_ok = st[okm]
                pk_ok = PK[:a_n][okm]
                em_ok = EM[:a_n][okm]
                ns_ok = NS[:a_n][okm]
            else:
                lanes_ok = lanes
                st_ok = st
                pk_ok = PK[:a_n]
                em_ok = EM[:a_n]
                ns_ok = NS[:a_n]
            died = ns_ok < 0
            moved = ns_ok != st_ok
            any_moved = bool(moved.any())
            if coverage and len(lanes_ok):
                cov_t[lanes_ok, pk_ok >> 1] = True
                if any_moved and t + 1 < total:
                    # States are marked on entry only (instant 0 marked
                    # every lane's initial state up front).  The scalar
                    # engine marks the pre-state of each *executed*
                    # instant, so a state entered on the final horizon
                    # instant is never executed in — don't mark it.
                    entered = moved & ~died
                    if entered.any():
                        cov_s[lanes_ok[entered], ns_ok[entered]] = True
                if self._emit_probe:
                    pe = P2[:a_n][:, probe_pidx] != 0
                    if bad:
                        pe = pe[okm]
                    cov_e[lanes_ok[:, None], probe_eidx[None, :]] |= pe
            events[lanes_ok] += np.bitwise_count(em_ok)
            if records:
                cache = self._mask_cache
                badset = set(bad)
                lanes_list = lanes.tolist()
                for slot in range(a_n):
                    if slot in badset:
                        continue
                    lane = lanes_list[slot]
                    mask = int(EM[slot])
                    inputs = {}
                    if t < drawn:
                        for j, (name, pure, *_rest) in enumerate(plan):
                            if pres[j, t, lane]:
                                inputs[name] = (
                                    None if pure else int(vals[j, t, lane])
                                )
                    if mask:
                        entry = cache.get(mask)
                        if entry is None:
                            entry = self._decode(mask)
                        names, valued = entry
                        values = {
                            spec_v[1]: self._read_value(spec_v, slot, S2, D2)
                            for spec_v in valued
                        }
                        out_records[lane].append(
                            {
                                "inputs": inputs,
                                "emitted": list(names),
                                "values": values,
                            }
                        )
                    else:
                        out_records[lane].append(
                            {"inputs": inputs, "emitted": [], "values": {}}
                        )
            n_died = int(died.sum()) if any_moved else 0
            if n_died:
                lanes_died = lanes_ok[died]
                terminated[lanes_died] = True
                # Instants are counted lazily: dying lanes record their
                # executed-instant count here, survivors after the loop.
                instants[lanes_died] = t + 1
            if bad:
                idx = np.nonzero(okm)[0]
                state[idx] = np.where(died, DEAD, ns_ok)
                state[bad] = DEAD
                dirty = True
            elif any_moved:
                state[:a_n] = np.where(died, DEAD, ns_ok)
                dirty = True
            dead += n_died + len(bad)
            ran = t + 1

        alive = state != DEAD
        if alive.any():
            instants[perm[alive]] = ran

        # 4. assemble per-instance outcomes (errored lanes mirror a
        # scalar error job: everything but the message is discarded).
        maps = None
        raw = None
        if coverage == "raw":
            bad_lanes = [i for i in range(n) if errors[i] is not None]
            if bad_lanes:
                cov_s[bad_lanes] = False
                cov_t[bad_lanes] = False
                cov_e[bad_lanes] = False
            raw = (cov_s.astype(_U8), cov_t.astype(_U8), cov_e.astype(_U8))
        elif coverage:
            from ...verify.coverage import CoverageMap

            maps = []
            for i in range(n):
                if errors[i] is not None:
                    maps.append(None)
                    continue
                cmap = CoverageMap.for_efsm(self.efsm)
                cmap.states[:] = cov_s[i].tobytes()
                cmap.transitions[:] = cov_t[i].tobytes()
                cmap.emits[:] = cov_e[i].tobytes()
                maps.append(cmap)
        inst_out = []
        term_out = []
        events_out = []
        for i in range(n):
            if errors[i] is not None:
                inst_out.append(0)
                term_out.append(False)
                events_out.append(0)
                if records:
                    out_records[i] = None
            else:
                inst_out.append(int(instants[i]))
                term_out.append(bool(terminated[i]))
                events_out.append(int(events[i]))
        return SweepOutcome(
            instants=inst_out,
            terminated=term_out,
            emitted_events=events_out,
            errors=errors,
            records=out_records,
            coverage=maps,
            raw_coverage=raw,
        )
