"""Compiled simulation kernels behind a backend registry.

The batch engine (:mod:`repro.sim.batch`) advances every instance of a
batch by one port message per Python loop iteration -- a few dozen tiny
numpy calls over a flat state vector.  At paper scale the arrays are short
enough that interpreter/dispatch overhead dominates, so this module
compiles the two hot recurrences as **whole-run kernels**: one call
advances *all* steps of a batch inside compiled code.  Both kernels walk
the engine's shared per-plan message streams through per-instance
``(B, P)`` stream pointers -- the strict kernel takes each step's worker
from the plan's order, the ready kernel picks the least effective start,
then the least priority key, then the lowest index -- and compute each
message's ``nblocks * c`` / ``updates * w`` inline from the instance's
worker costs.  The kernels loop instance by instance, so
one call over a batch of any size or length spread costs what the
instances' own steps cost.  The C source below is the kernels' one text;
the numpy per-step path is its bit-identical oracle (the kernels perform
the same IEEE-754 operations in the same per-instance order, so results
match exactly -- the equivalence walls pin this).

Backends
--------

``numpy``
    No kernel at all: :class:`~repro.sim.batch.BatchEngine` keeps its
    per-step numpy loops.  Always available; the oracle, and the default
    wherever the C backend cannot be built.
``c``
    The two kernels below as a small C file, built once with the system C
    compiler (``-O2 -ffp-contract=off``) into a cached shared library and
    driven through :mod:`ctypes`.  Needs a working ``cc``/``gcc``/``clang``.
    The default backend whenever it builds, and the one whole-run backend.

Selection: the backend is a per-process setting.  The ``REPRO_KERNEL``
environment variable names it (the CLI's ``--kernel`` flag sets it), so
planning searches, replays and inherited ``--parallel`` workers all step
on the same backend.  Unset, it defaults to ``"c"`` when the C kernels
build here, ``"numpy"`` when they do not (the build is attempted once
per process, before any simulation runs, and a failed build falls back
silently).  Naming an unavailable backend falls back to numpy with a
single warning per process, so ``REPRO_KERNEL=c`` is safe to export on
machines without a compiler.  A name outside :data:`KERNEL_NAMES` raises
:class:`ValueError`.

Kernels take an explicit ``t0``/``t1`` step window, so
``BatchEngine.run(max_steps=)``, ``checkpoint()/restore()`` and the
shared-prefix incremental search all keep working under the compiled
backend: the engine simply asks the kernel to advance the window it would
otherwise have stepped through in Python.  The shared-prefix search also
passes ``B = 1`` to advance only the batch's longest instance through the
common prefix before broadcasting its state.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from ..obs import counter, stopwatch, trace

__all__ = [
    "KERNEL_NAMES",
    "KERNEL_ENV",
    "KernelBackend",
    "KernelUnavailable",
    "available_backends",
    "get_backend",
    "resolve_kernel",
]

#: Environment variable naming the process's backend (``--kernel`` sets it).
KERNEL_ENV = "REPRO_KERNEL"

#: Registered backend names, in documentation order.
KERNEL_NAMES = ("numpy", "c")


class KernelUnavailable(RuntimeError):
    """The requested backend cannot run in this environment."""


# ----------------------------------------------------------------------
# the kernels, in C
#
# This C file is the kernels' one text.  Each block carries a comment
# naming the numpy per-step operation it mirrors (``BatchEngine._post``,
# ``_step_strict`` and ``_step_ready`` in :mod:`repro.sim.batch`): the
# same IEEE-754 operations in the same per-instance order, so the numpy
# backend is the bit-identical oracle the equivalence walls check the
# compiled kernels against.
# ----------------------------------------------------------------------
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define RMAX(a, b) ((a) > (b) ? (a) : (b))

/* Instances are independent, so each one runs its whole [t0, t1) window
 * in turn.  Instance b posts steps [0, lengths[b]); lengths descend, so
 * the first drained instance ends the batch.  Per (instance, worker)
 * arrays are (B, P) row-major; the f_* message streams are shared by
 * every instance replaying the same plan. */
void strict_run(int64_t t0, int64_t t1, int64_t B, int64_t P,
                const int64_t *restrict lengths,     /* (B,) descending */
                const int64_t *restrict order,       /* plans' strict orders, concatenated */
                const int64_t *restrict order_base,  /* (B,) offset of b's order */
                int64_t *restrict ptr,               /* (B, P) next stream message */
                const int64_t *restrict seg,         /* (B, P) state-segment base */
                const double *restrict cost_c,       /* (B, P) port cost per block */
                const double *restrict cost_w,       /* (B, P) compute cost per update */
                const int8_t *restrict f_kind,       /* (N,) kind code 1/2/3 */
                const double *restrict f_nb,         /* (N,) blocks moved */
                const double *restrict f_upd,        /* (N,) block updates */
                const int64_t *restrict f_legal,     /* (N,) legal-start slot, rel. seg */
                const int64_t *restrict f_ring,      /* (N,) ring slot, rel. seg */
                double *restrict S,                  /* flat state, one segment per (b, w) */
                double *restrict port_free,          /* (B,) */
                double *restrict port_busy)          /* (B,) */
{
    for (int64_t b = 0; b < B; b++) {
        int64_t stop = lengths[b] < t1 ? lengths[b] : t1;
        if (stop <= t0) break;
        double pf = port_free[b];
        double busy = port_busy[b];
        const int64_t *ord = order + order_base[b];
        for (int64_t t = t0; t < stop; t++) {
            /* _step_strict: the plan's order names the worker; take its
             * next message and read that message's legal start */
            int64_t off = b * P + ord[t];
            int64_t mp = ptr[off];
            ptr[off] = mp + 1;
            int64_t sg = seg[off];
            double legal = S[sg + f_legal[mp]];
            /* _post: the port recurrence */
            double start = RMAX(pf, legal);
            double end = start + f_nb[mp] * cost_c[off];
            busy += end - start;
            pf = end;
            int8_t kind = f_kind[mp];
            if (kind == 2) {          /* _post, ROUND: the compute chain */
                int64_t cei = sg + 1;
                double cs = RMAX(end, S[cei]);
                double ce = cs + f_upd[mp] * cost_w[off];
                S[sg + f_ring[mp]] = ce;
                S[cei] = ce;
                S[cei + 1] += ce - cs;
            } else if (kind == 3) {   /* _post, C_RETURN */
                S[sg] = end;
            }
        }
        port_free[b] = pf;
        port_busy[b] = busy;
    }
}

/* The ready kernel takes the strict kernel's arguments minus the order,
 * plus each worker's stream end and its cached head keys (inf once the
 * worker drained); by_cid picks the priority key (1: head chunk id,
 * 0: head legal start). */
void ready_run(int64_t t0, int64_t t1, int64_t B, int64_t P,
               const int64_t *restrict lengths,
               int64_t *restrict ptr,
               const int64_t *restrict endp,         /* (B, P) end of each stream */
               const int64_t *restrict seg,
               const double *restrict cost_c,
               const double *restrict cost_w,
               double *restrict head_legal,          /* (B, P) head legal starts */
               double *restrict head_cid,            /* (B, P) head chunk ids */
               const int8_t *restrict f_kind,
               const double *restrict f_nb,
               const double *restrict f_upd,
               const double *restrict f_cid,         /* (N,) chunk ids, exact below 2**53 */
               const int64_t *restrict f_legal,
               const int64_t *restrict f_ring,
               int64_t by_cid,
               double *restrict S,
               double *restrict port_free,
               double *restrict port_busy)
{
    for (int64_t b = 0; b < B; b++) {
        int64_t stop = lengths[b] < t1 ? lengths[b] : t1;
        if (stop <= t0) break;
        double pf = port_free[b];
        double busy = port_busy[b];
        double *hl = head_legal + b * P;
        double *hc = head_cid + b * P;
        for (int64_t t = t0; t < stop; t++) {
            /* _step_ready: the masked argmin over (effective start,
             * priority key); an ascending scan with strict improvement
             * resolves ties to the lowest worker index, as argmax does */
            int64_t best = 0;
            double v = hl[0];
            double best_eff = RMAX(pf, v);
            for (int64_t i = 1; i < P; i++) {
                v = hl[i];
                double eff = RMAX(pf, v);
                if (eff < best_eff || (eff == best_eff
                        && (by_cid ? hc[i] < hc[best] : v < hl[best]))) {
                    best = i;
                    best_eff = eff;
                }
            }
            int64_t off = b * P + best;
            int64_t mp = ptr[off];
            int64_t sg = seg[off];
            /* _post: the port recurrence, from the selected start */
            double end = best_eff + f_nb[mp] * cost_c[off];
            busy += end - best_eff;
            pf = end;
            int8_t kind = f_kind[mp];
            if (kind == 2) {          /* _post, ROUND: the compute chain */
                int64_t cei = sg + 1;
                double cs = RMAX(end, S[cei]);
                double ce = cs + f_upd[mp] * cost_w[off];
                S[sg + f_ring[mp]] = ce;
                S[cei] = ce;
                S[cei + 1] += ce - cs;
            } else if (kind == 3) {   /* _post, C_RETURN */
                S[sg] = end;
            }
            /* _step_ready: advance the pointer, refresh the head keys */
            int64_t nxt = mp + 1;
            ptr[off] = nxt;
            if (nxt < endp[off]) {
                hl[best] = S[sg + f_legal[nxt]];
                hc[best] = f_cid[nxt];
            } else {
                hl[best] = INFINITY;
                hc[best] = INFINITY;
            }
        }
        port_free[b] = pf;
        port_busy[b] = busy;
    }
}
"""


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class KernelBackend:
    """One entry of the kernel registry.

    ``whole_run`` backends advance a batch through a ``[t0, t1)`` step
    window in a single :meth:`strict_run` / :meth:`ready_run` call; the
    numpy backend sets it ``False`` and the engine keeps its per-step
    loops.  :meth:`ensure_ready` performs any one-time compile/load work
    (the C build) so benchmarks can time warm-up separately from steady
    state.
    """

    #: registry name
    name: str = "?"
    #: the engine should call the whole-run kernels instead of stepping
    whole_run: bool = True

    def ensure_ready(self) -> None:
        """Compile/load everything this backend needs (idempotent)."""

    def strict_run(self, *args) -> None:
        raise NotImplementedError

    def ready_run(self, *args) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<kernel backend {self.name!r}>"


class NumpyBackend(KernelBackend):
    """The oracle: no kernel, the engine keeps its per-step numpy loops."""

    name = "numpy"
    whole_run = False


class CBackend(KernelBackend):
    """The C kernels, built once with the system compiler and driven
    through :mod:`ctypes`.

    The shared library is cached under ``REPRO_KERNEL_CACHE`` (default
    ``~/.cache/repro-mm/kernels``), keyed on a hash of the C source, so
    one build serves every process; an unwritable cache falls back to a
    per-process temporary directory.  ``-ffp-contract=off`` forbids
    FMA contraction, keeping every add/multiply a distinct IEEE-754
    operation exactly as numpy performs them.
    """

    name = "c"

    def __init__(self) -> None:
        import shutil

        self._cc = (
            os.environ.get("CC")
            or shutil.which("cc")
            or shutil.which("gcc")
            or shutil.which("clang")
        )
        if not self._cc:
            raise KernelUnavailable(
                "the c kernel backend needs a C compiler (cc/gcc/clang) on PATH"
            )
        if not shutil.which(self._cc):
            raise KernelUnavailable(f"C compiler {self._cc!r} not found")
        self._lib = None

    # -- build ----------------------------------------------------------
    def _cache_dir(self) -> str:
        configured = os.environ.get("REPRO_KERNEL_CACHE")
        if configured:
            return configured
        return os.path.join(
            os.path.expanduser("~"), ".cache", "repro-mm", "kernels"
        )

    def _build(self):
        import ctypes
        import hashlib
        import subprocess
        import tempfile

        digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
        so_name = f"repro_kernels_{digest}.so"

        def compile_into(directory: str) -> str:
            os.makedirs(directory, exist_ok=True)
            so_path = os.path.join(directory, so_name)
            if not os.path.exists(so_path):
                c_path = os.path.join(directory, f".build_{os.getpid()}.c")
                tmp_so = os.path.join(directory, f".build_{os.getpid()}.so")
                with open(c_path, "w") as fh:
                    fh.write(_C_SOURCE)
                cmd = [
                    self._cc, "-O2", "-ffp-contract=off", "-fPIC", "-shared",
                    c_path, "-o", tmp_so,
                ]
                try:
                    try:
                        subprocess.run(cmd, check=True, capture_output=True, text=True)
                    except OSError as exc:
                        # the compiler itself cannot launch: not a cache
                        # problem, so no tempdir retry can help
                        raise KernelUnavailable(
                            f"cannot run C compiler {self._cc!r}: {exc}"
                        ) from exc
                    os.replace(tmp_so, so_path)  # atomic vs concurrent builds
                finally:
                    for path in (c_path, tmp_so):
                        try:
                            os.remove(path)
                        except OSError:
                            pass
            return so_path

        try:
            so_path = compile_into(self._cache_dir())
        except subprocess.CalledProcessError as exc:
            raise KernelUnavailable(
                f"C kernel compilation failed with {self._cc}: {exc.stderr}"
            ) from exc
        except OSError:
            # unwritable cache dir: build into a process-private tempdir
            try:
                so_path = compile_into(tempfile.mkdtemp(prefix="repro-kernels-"))
            except subprocess.CalledProcessError as exc:
                raise KernelUnavailable(
                    f"C kernel compilation failed with {self._cc}: {exc.stderr}"
                ) from exc
        try:
            lib = ctypes.CDLL(so_path)
            i64 = ctypes.c_int64
            ptr = ctypes.c_void_p
            lib.strict_run.restype = None
            lib.strict_run.argtypes = [i64, i64, i64, i64] + [ptr] * 15
            lib.ready_run.restype = None
            lib.ready_run.argtypes = (
                [i64, i64, i64, i64] + [ptr] * 14 + [i64] + [ptr] * 3
            )
        except (OSError, AttributeError) as exc:
            # a noexec cache mount, or a cached .so built for another
            # architecture/libc (the cache key hashes only the source)
            raise KernelUnavailable(
                f"cannot load C kernels from {so_path}: {exc}"
            ) from exc
        return lib

    def ensure_ready(self) -> None:
        if self._lib is None:
            with trace("kernel.build", backend=self.name), stopwatch(
                "kernel.build_seconds"
            ):
                self._lib = self._build()

    # -- dispatch -------------------------------------------------------
    @staticmethod
    def _p(arr: np.ndarray, dtype):
        # the C code reads the buffer as raw memory: a mistyped or strided
        # array must never reach it (an assert would vanish under -O)
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            raise TypeError(
                f"C kernel argument must be a C-contiguous {np.dtype(dtype)} "
                f"array, got {arr.dtype} (C-contiguous: {arr.flags.c_contiguous})"
            )
        import ctypes

        return ctypes.c_void_p(arr.ctypes.data)

    def strict_run(
        self, t0, t1, B, P, lengths, order, order_base, ptr, seg, cost_c, cost_w,
        f_kind, f_nb, f_upd, f_legal, f_ring, S, port_free, port_busy,
    ) -> None:
        self.ensure_ready()
        p, f8, i8 = self._p, np.float64, np.int64
        self._lib.strict_run(
            t0, t1, B, P,
            p(lengths, i8), p(order, i8), p(order_base, i8), p(ptr, i8), p(seg, i8),
            p(cost_c, f8), p(cost_w, f8),
            p(f_kind, np.int8), p(f_nb, f8), p(f_upd, f8),
            p(f_legal, i8), p(f_ring, i8),
            p(S, f8), p(port_free, f8), p(port_busy, f8),
        )

    def ready_run(
        self, t0, t1, B, P, lengths, ptr, endp, seg, cost_c, cost_w,
        head_legal, head_cid, f_kind, f_nb, f_upd, f_cid, f_legal, f_ring,
        by_cid, S, port_free, port_busy,
    ) -> None:
        self.ensure_ready()
        p, f8, i8 = self._p, np.float64, np.int64
        self._lib.ready_run(
            t0, t1, B, P,
            p(lengths, i8), p(ptr, i8), p(endp, i8), p(seg, i8),
            p(cost_c, f8), p(cost_w, f8),
            p(head_legal, f8), p(head_cid, f8),
            p(f_kind, np.int8), p(f_nb, f8), p(f_upd, f8), p(f_cid, f8),
            p(f_legal, i8), p(f_ring, i8),
            by_cid,
            p(S, f8), p(port_free, f8), p(port_busy, f8),
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_FACTORIES = {
    "numpy": NumpyBackend,
    "c": CBackend,
}
_instances: dict[str, KernelBackend] = {}
_failures: dict[str, str] = {}
_warned: set[str] = set()


def get_backend(name: str) -> KernelBackend:
    """The backend registered under ``name``.

    Raises :class:`ValueError` for unknown names and
    :class:`KernelUnavailable` when the backend cannot run here (no C
    compiler).  Instances are cached per process; so are
    unavailability verdicts.
    """
    if name not in _FACTORIES:
        raise ValueError(f"unknown kernel backend {name!r}; known: {KERNEL_NAMES}")
    backend = _instances.get(name)
    if backend is not None:
        return backend
    if name in _failures:
        raise KernelUnavailable(_failures[name])
    try:
        backend = _FACTORIES[name]()
    except KernelUnavailable as exc:
        _failures[name] = str(exc)
        raise
    _instances[name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can actually run in this environment
    (probing compiles/loads nothing beyond a compiler lookup)."""
    out = []
    for name in KERNEL_NAMES:
        try:
            get_backend(name)
        except KernelUnavailable:
            continue
        out.append(name)
    return tuple(out)


def _ready_backend(name: str) -> KernelBackend:
    """:func:`get_backend` plus its one-time build/compile, so a backend
    that cannot build is unavailable before any simulation runs (the
    failure verdict is cached like a constructor failure)."""
    backend = get_backend(name)
    try:
        backend.ensure_ready()
    except KernelUnavailable as exc:
        _instances.pop(name, None)
        _failures[name] = str(exc)
        raise
    return backend


def resolve_kernel() -> KernelBackend:
    """The process's backend instance.

    :data:`KERNEL_ENV` (``REPRO_KERNEL``) names it; when that is unset
    the default is ``"c"`` if the C kernels build here and ``"numpy"``
    otherwise (silently: a host without a compiler is a supported
    configuration, not a misconfiguration).  Named backends are built on
    resolution, so a requested-but-unavailable one -- no compiler or a
    failed build -- falls back to numpy with one clear warning per
    process, and environment-knob users never crash on a machine without
    a compiler.  An unknown name raises :class:`ValueError` (from
    :func:`get_backend`).
    """
    kernel = os.environ.get(KERNEL_ENV, "").strip()
    if not kernel:
        try:
            return _ready_backend("c")
        except KernelUnavailable:
            return get_backend("numpy")
    try:
        return _ready_backend(kernel)
    except KernelUnavailable as exc:
        counter("kernel.fallback").inc()
        if kernel not in _warned:
            _warned.add(kernel)
            warnings.warn(
                f"kernel backend {kernel!r} is unavailable ({exc}); "
                "falling back to the numpy reference path",
                RuntimeWarning,
                stacklevel=2,
            )
        return get_backend("numpy")
