"""Teager-Kaiser pulse detectors and the Monte-Carlo ROC study.

Five detector pipelines are provided:

- FIR_NUL_NC: the bare non-causal three-point Teager-Kaiser (TK) operator,
  no pre-filter.
- IIR_BW0: causal Butterworth reference smoother (the stable half of a
  2K = 12 zero-phase prototype, discretized by the bilinear method) followed
  by causal three-point TK.
- IIR_BW1: the one-stage smoother/differentiator filterbank (K_w_dc = 3,
  K_w_nb = 3, K = 9, optimal delay); TK energy formed directly from the
  derivative outputs.
- IIR_BW0_NC: zero-phase Butterworth (2K = 8, bilinear), realized as a
  forward pass plus a time-reversed pass of the causal half, followed by
  non-causal TK.
- IIR_BW1_NC: zero-delay two-sided filterbank smoother (K_w_dc = 4,
  K_w_nb = 2 over all 2K = 8 impulse-invariant Butterworth poles) followed
  by non-causal TK.

The Monte-Carlo study measures detectability of a damped-oscillator pulse
of unknown frequency buried in narrowband interference at INTERFERENCE_F_C.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from .butter import butterworth_s_poles
from .design import DETECTOR_TAGS, DesignSpec, FilterbankDesign, \
    design_filterbank, noncausal_design
from .procsim import DETECT_FS, DETECT_N, FALSE_WINDOW, INTERFERENCE_F_C, \
    P_INT, P_SIG, PULSE_SAMPLE, SIGNAL_F_C, TRUE_WINDOW, \
    check_nonnegative_int, detect_signal_response, discretize_process, \
    scenario_params
from .realize import run_bank, run_filter, run_noncausal

#: Trials that ``run_detection_mc`` filters and scores together.  A block's
#: working arrays are (2 BLOCK, DETECT_N) float64, 16 kB per trial each,
#: and a detector holds a few of them at once.  A block pays its fixed
#: costs once: seed hashing, oscillator set-up, one interference filter
#: and two calls per detector.  32 ran detect-mc ×1.06 faster than 16 for
#: +1.1 % peak memory; 48 and 64 ran no faster than 32 for +2.2 and +3.1 %
#: (2-core x86-64 VM; README § detection has the sweep).
BLOCK = 32
#: Simulated trials that ``block_statistics`` keeps, as MEMO_BLOCKS whole
#: blocks of full rows, least recently used out first.  A trial's rows are
#: 16 kB, so the memo holds at most 4.1 MB, whatever BLOCK is.  Detectors
#: compared on the same trials of one seed and signal kind, up to that
#: many, as the benchmark's five detectors at 200 trials are, simulate
#: them once.  A longer run (criterion 10 and ``detect-sim`` at 2,000
#: trials, 63 blocks) could reuse none of its blocks, so unless its
#: detector reads whole rows it bypasses the memo and simulates each
#: block's rows only as far as the detector reads them (the pipeline's
#: ``reads``, see ``build_detector``).
MEMO_TRIALS = 256
MEMO_BLOCKS = MEMO_TRIALS // BLOCK
#: The ``reads`` of a detector that reads whole rows: DETECT_N samples of
#: a signal row and of an interference-only row.
_FULL_ROWS = (DETECT_N, DETECT_N)


@dataclass(frozen=True)
class RocCurve:
    """Empirical ROC: (P_fa, P_d) pairs swept over thresholds, plus AUC."""

    p_fa: np.ndarray
    p_d: np.ndarray
    auc: float


def _rows_and_window(x: np.ndarray, window) -> Tuple[np.ndarray, int, int]:
    """x as a float array, and the first and last sample of the window
    (lo, hi) along its last axis: all of the row when window is None."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n < 3:
        raise ValueError("need at least 3 samples")
    lo, hi = (0, n - 1) if window is None else window
    if not 0 <= lo <= hi < n:
        raise ValueError(f"window {window} does not lie within the {n} "
                         "samples of a row")
    return x, lo, hi


def _tk_window(y: np.ndarray, start: int, lo: int, hi: int, causal: bool,
               t_s: float) -> np.ndarray:
    """Three-point Teager-Kaiser energies of samples lo, ..., hi of rows
    along the last axis, from y, whose column j holds sample start + j of
    the rows:

        causal:     E[n] = (x[n-1]^2 - x[n-2] x[n]) / T_s^2,
        non-causal: E[n] = (x[n]^2 - x[n-1] x[n+1]) / T_s^2.

    An energy is bit for bit the same whatever window of the rows y
    holds, as long as y holds every sample that the energy reads.  An
    energy whose centre sample has a neighbour outside y is taken as a
    row edge, which is zero, as are the edge samples of whole rows."""
    # The energy at n is centred on sample n - 1 (causal) or n, so the
    # centre in column j gives output column j + skip.  first and last
    # are the columns of the first and last centres with both neighbours.
    skip = start - lo + (1 if causal else 0)
    first = max(-skip, 1)
    last = min(hi - lo - skip, y.shape[-1] - 2)
    e = np.zeros(y.shape[:-1] + (hi + 1 - lo,))
    if first <= last:
        out = e[..., first + skip:last + skip + 1]
        np.square(y[..., first:last + 1], out=out)
        out -= y[..., first - 1:last] * y[..., first + 1:last + 2]
        out /= t_s ** 2
    return e


def tk_energy_derivatives(y0: np.ndarray, y1: np.ndarray,
                          y2: np.ndarray) -> np.ndarray:
    """TK energy from direct derivative estimates: E = y1^2 - y0 y2."""
    y0, y1, y2 = map(np.asarray, (y0, y1, y2))
    if not y0.shape == y1.shape == y2.shape:
        raise ValueError("derivative sequences must have equal lengths")
    e = np.square(y1, dtype=np.result_type(y0, y1, y2))
    e -= y0 * y2
    return e


def _bilinear_allpole(s_poles: np.ndarray, t_s: float) -> Tuple[np.ndarray,
                                                                np.ndarray]:
    """Bilinear transform of an all-pole analog filter, dc gain forced to 1.

    Each analog pole maps to (2/T_s + s)/(2/T_s - s); each excess pole
    contributes a zero at z = -1.
    """
    fs2 = 2.0 / t_s
    zp = (fs2 + s_poles) / (fs2 - s_poles)
    zz = -np.ones(len(s_poles))
    b = np.real(np.atleast_1d(np.poly(zz)))
    a = np.real(np.atleast_1d(np.poly(zp)))
    b = b * (np.polyval(a, 1.0) / np.polyval(b, 1.0))
    return b, a


def bw0_reference(causal: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Butterworth reference smoother coefficients (bilinear method), with
    the cutoff at SIGNAL_F_C of DETECT_FS.

    The causal reference is the stable half of a 2K = 12 zero-phase
    prototype (a 6th-order lowpass); the non-causal reference is the causal
    half of a 2K = 8 prototype (4th order), intended to be applied forward
    and backward so the net response is its squared magnitude.
    """
    t_s = 1.0 / DETECT_FS
    w_c = 2.0 * np.pi * SIGNAL_F_C * DETECT_FS
    order = 6 if causal else 4
    s_poles = butterworth_s_poles(order, w_c)
    lhp = s_poles[s_poles.real < 0]
    return _bilinear_allpole(lhp, t_s)


def bw1_filterbank() -> FilterbankDesign:
    """The K = 9 causal filterbank of the detection study."""
    return design_filterbank(DesignSpec(
        f_s=DETECT_FS, f_wb=SIGNAL_F_C, f_nb=INTERFERENCE_F_C, k_w_dc=3,
        k_w_nb=3, k_w_pi=0, k_t=3, group_delay="optimal"))


def bw1_nc_smoother() -> Tuple[FilterbankDesign, FilterbankDesign]:
    """Zero-delay two-sided smoother: K_w_dc = 4, K_w_nb = 2, 2K = 8 poles."""
    return noncausal_design(DesignSpec(
        f_s=DETECT_FS, f_wb=SIGNAL_F_C, f_nb=INTERFERENCE_F_C, k_w_dc=4,
        k_w_nb=2, k_w_pi=0, k_t=1, group_delay=0.0, causal=False))


def build_detector(tag: str) -> Callable[..., np.ndarray]:
    """Map a detector tag to a callable (x, window=None) -> TK energy.

    The callable works along the last axis, so a (rows, N) array gives
    the TK energy of each row, equal to one call per row.  Given a
    window (lo, hi), inclusive sample indices of the rows, it returns
    the energy of samples lo, ..., hi only, bit for bit that of the full
    rows, and computes only the samples that energy reads:

    - IIR_BW0 filters up to hi and forms TK on the window;
    - IIR_BW1 runs its bank's shared all-pole recursion up to hi, and
      forms its three numerators and TK on the window
      (``realize.run_bank``);
    - FIR_NUL_NC forms TK on the window;
    - IIR_BW1_NC runs its forward pass up to hi + 1 and its backward
      pass from the row end down to lo - 1;
    - IIR_BW0_NC runs its forward pass over the whole row, and stops its
      time-reversed second pass at lo - 1.

    The filter kernel, ``run_bank``'s numerator product and the
    element-wise TK arithmetic compute each sample with the same
    operations, however far they run.  Each design is built once, here.
    Every pipeline is built at DETECT_FS, the rate of the scenario that
    ``block_statistics`` simulates, which calls it with its windows.

    The callable's ``reads`` attribute holds the samples it reads of a
    signal row and of an interference-only row at TRUE_WINDOW and
    FALSE_WINDOW: their ends plus one for IIR_BW0 and IIR_BW1 (501 and
    801), plus two for FIR_NUL_NC (502 and 802), whose energy reads the
    next sample, and DETECT_N for the two-sided pipelines, whose backward
    passes start at the row end.  A run of more than MEMO_TRIALS trials
    simulates its rows only that far (``run_detection_mc``)."""
    t_s = 1.0 / DETECT_FS
    # Samples past its window's end that a one-sided pipeline reads; None
    # for the two-sided ones, which read whole rows.
    ahead = None
    if tag == "FIR_NUL_NC":
        ahead = 1

        def detect(x: np.ndarray, window=None) -> np.ndarray:
            x, lo, hi = _rows_and_window(x, window)
            return _tk_window(x, 0, lo, hi, causal=False, t_s=t_s)
    elif tag == "IIR_BW0":
        b, a = bw0_reference(causal=True)
        ahead = 0

        def detect(x: np.ndarray, window=None) -> np.ndarray:
            x, lo, hi = _rows_and_window(x, window)
            y = run_filter(b, a, x[..., :hi + 1])
            return _tk_window(y, 0, lo, hi, causal=True, t_s=t_s)
    elif tag == "IIR_BW1":
        d = bw1_filterbank()
        ahead = 0

        def detect(x: np.ndarray, window=None) -> np.ndarray:
            x, lo, hi = _rows_and_window(x, window)
            return tk_energy_derivatives(*run_bank(d, x[..., :hi + 1], lo))
    elif tag == "IIR_BW0_NC":
        b, a = bw0_reference(causal=False)

        def detect(x: np.ndarray, window=None) -> np.ndarray:
            x, lo, hi = _rows_and_window(x, window)
            n = x.shape[-1]
            # Non-causal TK is symmetric in time: the energy of the
            # reversed rows, reversed, without a copy of them.  Column k
            # of y is sample n - 1 - k.
            u = run_filter(b, a, x)[..., max(lo - 1, 0):]
            y = run_filter(b, a, u[..., ::-1])
            return _tk_window(y, 0, n - 1 - hi, n - 1 - lo, causal=False,
                              t_s=t_s)[..., ::-1]
    elif tag == "IIR_BW1_NC":
        fwd, bwd = bw1_nc_smoother()

        def detect(x: np.ndarray, window=None) -> np.ndarray:
            x, lo, hi = _rows_and_window(x, window)
            start = max(lo - 1, 0)
            y = run_noncausal(fwd, bwd, x, k_t=0,
                              span=(start, min(hi + 1, x.shape[-1] - 1)))
            return _tk_window(y, start, lo, hi, causal=False, t_s=t_s)
    else:
        raise ValueError(f"unknown detector tag {tag!r}; supported tags: "
                         + ", ".join(DETECTOR_TAGS))
    detect.reads = _FULL_ROWS if ahead is None else tuple(
        hi + 1 + ahead for _, hi in (TRUE_WINDOW, FALSE_WINDOW))
    return detect


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx, the same
# since NumPy 1.17): a pool of four uint32 words, the hash constants and
# the multipliers of its mixing function.
_POOL = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list:
    """n as SeedSequence splits an integer: 32-bit words, least
    significant first; [0] for 0."""
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant: init, init * mult, ..."""
    while True:
        yield init
        init = init * mult & _MASK32


def _hashmix(value, const, mult: int):
    """SeedSequence's hashmix of value under the hash constant const, whose
    successor is const * mult.  Both are ints or uint32 arrays."""
    value = (value ^ const) * (const * mult & _MASK32) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    result = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


#: The hash constants of the pool's 2 _POOL output words.
_STATE_CONSTANTS = np.array(list(itertools.islice(
    _hash_constants(_INIT_B, _MULT_B), 2 * _POOL)), dtype=np.uint32)[:, None]


@functools.lru_cache(maxsize=8)
def _seed_pool(seed: int, spawn_words: int):
    """SeedSequence's (_POOL, 1) uint32 pool after seed's words, zero-padded
    to _POOL, which mix with each other and then, past _POOL, into each pool
    word alone; and the hash constants of spawn_words more words."""
    words = _uint32_words(seed)
    words += [0] * (_POOL - len(words))
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, next(constants), _MULT_A)
            for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(
                    pool[src], next(constants), _MULT_A))
    later = np.array([[next(constants) for _ in range(_POOL)] for _ in range(
        len(words) - _POOL + spawn_words)], dtype=np.uint32)[:, :, None]
    pool = np.array(pool, dtype=np.uint32)[:, None]
    for word, const in zip(words[_POOL:], later):
        pool = _mix(pool, _hashmix(word, const, _MULT_A))
    return pool, later[len(words) - _POOL:]


def _trial_seed_states(seed: int, first: int, count: int) -> np.ndarray:
    """Row 3 i + j is ``SeedSequence(seed, spawn_key=(first + i, j))
    .generate_state(4, np.uint64)``, the seed of a PCG64 stream, for
    i < count and j = 0, 1, 2: the words of t and j mixed, in one array
    pass per number of words of t, into the seed's memoized pool."""
    states = []
    for width, group in itertools.groupby(
            (_uint32_words(t) for t in range(first, first + count)), len):
        pool, constants = _seed_pool(seed, width + 1)
        trial_words = np.array(list(group), dtype=np.uint32)
        words = list(np.repeat(trial_words, 3, axis=0).T)
        words.append(np.tile(np.arange(3, dtype=np.uint32), len(trial_words)))
        for word, const in zip(words, constants):
            pool = _mix(pool, _hashmix(word, const, _MULT_A))
        states.append(_hashmix(np.tile(pool, (2, 1)), _STATE_CONSTANTS,
                               _MULT_B).T.copy())
    # Word pairs, low word first, make the uint64 words, as in NumPy.
    return np.concatenate(states, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _generator_from_state():
    """A function from PCG64 seed words to a Generator.  ``numpy.random``
    is imported here, on the first simulation, so that neither
    ``import maxflat.detector`` nor building the detectors (detect-mc's
    set-up) loads it."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        """A seed sequence whose state is already generated; PCG64 asks
        it only for ``generate_state(4, np.uint64)``."""

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return lambda state: Generator(PCG64(SeedState(state)))


@functools.cache
def _interference_transfer() -> Tuple[np.ndarray, np.ndarray]:
    """(b, a) of the detection study's interference process at DETECT_FS,
    built once and read-only, because every simulated block shares it."""
    b, a = discretize_process(
        scenario_params("detect", "interference", f_s=DETECT_FS),
        1.0 / DETECT_FS).transfer()
    b.flags.writeable = a.flags.writeable = False
    return b, a


def _simulate_rows(seed: int, first: int, count: int,
                   deterministic_signal: bool,
                   reads: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """The detector inputs of trials first, ..., first + count - 1, as
    (signal + interference rows, interference-only rows), over the first
    reads[0] >= PULSE_SAMPLE and reads[1] samples of their rows.  A trial
    builds its three generators and draws: the signal frequency f~ ~
    Uniform(0, SIGNAL_F_C), drawn here only, the stochastic pulse and the
    two interference rows, each only as far as its rows run.  The
    oscillators of the block's signals are formed once, as arrays, from
    the f~ of its trials (``procsim.detect_signal_response``).  The normal
    draws, the interference filter and the oscillator response compute
    each sample with the same operations however far a row runs, so a row
    is bit for bit the start of the full row.  Both arrays are read-only,
    so that a detector that writes into its input fails alike on every
    path."""
    t_s = 1.0 / DETECT_FS
    n_pulse = 1 if deterministic_signal else 51
    pulse_scale = np.sqrt(P_SIG / t_s)
    int_scale = np.sqrt((P_INT if deterministic_signal else 1.0) / t_s)
    pulse = np.full((count, n_pulse), pulse_scale)
    f_tilde = np.empty(count)
    signal, noise = (np.empty((count, n)) for n in reads)
    generator = _generator_from_state()
    states = _trial_seed_states(seed, first, count)
    for i in range(count):
        rng_sig, rng_int1, rng_int2 = map(generator, states[3 * i:3 * i + 3])
        # uniform(0, c) draws 0 + c * random(), the same bits.
        f_tilde[i] = SIGNAL_F_C * rng_sig.random()
        if not deterministic_signal:
            pulse[i] = rng_sig.normal(0.0, pulse_scale, n_pulse)
        rng_int1.standard_normal(out=signal[i])
        rng_int2.standard_normal(out=noise[i])
    # normal(0, s) draws s times the standard normal, the same numbers.
    signal *= int_scale
    noise *= int_scale
    b, a = _interference_transfer()
    signal, noise = run_filter(b, a, signal), run_filter(b, a, noise)
    signal[:, PULSE_SAMPLE:] += detect_signal_response(
        f_tilde, t_s, pulse, reads[0] - PULSE_SAMPLE)
    signal.flags.writeable = noise.flags.writeable = False
    return signal, noise


@functools.lru_cache(maxsize=MEMO_BLOCKS, typed=True)
def _simulate_block(seed: int, first: int, count: int,
                    deterministic_signal: bool
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """``_simulate_rows`` over whole rows, which the memo hands to every
    detector scored on the same trials."""
    return _simulate_rows(seed, first, count, deterministic_signal,
                          _FULL_ROWS)


def block_statistics(detector: Callable[..., np.ndarray],
                     seed: int, first: int, count: int,
                     deterministic_signal: bool = True, memo: bool = True
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """True and false statistics of trials first, ..., first + count - 1.

    Trial t draws from its own three streams,
    ``SeedSequence(seed, spawn_key=(t, j))`` for j = 0 (signal frequency,
    then the stochastic pulse), 1 (interference of the signal instance)
    and 2 (interference-only instance), which are the three children of
    ``SeedSequence(seed, spawn_key=(t,))``; so a trial's draws do not
    depend on the block it runs in.  The PCG64 seeds of a block's 3 count
    streams are hashed in one array pass that repeats SeedSequence's
    arithmetic, with the seed's own words mixed once per seed, and each
    stream's Generator is built from its seed.  The rest is done once per
    block too: the interference process is filtered over the count
    signal rows in one call and over the count interference-only rows in
    another, and each signal is the closed-form response of its
    trial's oscillator (``procsim.detect_signal_response``).  The inputs
    follow ``procsim.generate_waveform``: a pulse of height
    sqrt(P_SIG / T_s) at PULSE_SAMPLE, or Normal(0, P_SIG / T_s) over
    [PULSE_SAMPLE, PULSE_SAMPLE + 50] for the stochastic signal, under
    white Normal(0, P / T_s) interference drive with P = P_INT (or 1).

    The detector, a pipeline of ``build_detector`` or any callable
    (rows, window) -> energies of samples window[0], ..., window[1], runs
    twice: on the signal rows with TRUE_WINDOW and on the
    interference-only rows with FALSE_WINDOW.

    With memo true, the full rows come from a memo of MEMO_BLOCKS blocks
    (MEMO_TRIALS trials) keyed by (seed, first, count, signal kind), so
    detectors scored on the same trials share one simulation;
    ``run_detection_mc`` takes this path for runs of at most MEMO_TRIALS
    trials and for detectors that read whole rows.  With memo false, as
    for its longer runs, the rows are simulated for this call alone: the
    signal rows over their first detector.reads[0] samples and the
    interference-only rows over their first detector.reads[1] (whole rows
    for a detector without ``reads``).  Each sample is bit for bit that of
    the full row, so the statistics are too, as long as the detector reads
    no further.  A ``reads`` that is not two counts, each past its
    window's end and at most DETECT_N, raises ValueError.  seed, first and
    count must be non-negative integers: None, a bool, a float or a
    negative number raises ValueError.  The rows are read-only, and a
    detector that writes into its input raises ValueError.
    """
    seed = check_nonnegative_int(seed, "seed")
    first = check_nonnegative_int(first, "first")
    count = check_nonnegative_int(count, "count")
    if count < 1:
        raise ValueError("count must be >= 1")
    if memo:
        rows = _simulate_block(seed, first, count, bool(deterministic_signal))
    else:
        reads = tuple(getattr(detector, "reads", _FULL_ROWS))
        if len(reads) != 2 or not all(hi < n <= DETECT_N for n, (_, hi) in
                                      zip(reads, (TRUE_WINDOW, FALSE_WINDOW))):
            raise ValueError(f"a detector's reads must be two sample counts "
                             f"past its windows' ends, at most {DETECT_N}; "
                             f"got {reads!r}")
        rows = _simulate_rows(seed, first, count, bool(deterministic_signal),
                              reads)
    return (detector(rows[0], TRUE_WINDOW).max(axis=-1),
            detector(rows[1], FALSE_WINDOW).max(axis=-1))


def roc_from_statistics(stat_true: np.ndarray,
                        stat_false: np.ndarray) -> RocCurve:
    """Empirical ROC over the pooled sorted statistics; AUC by trapezoid.
    The thresholds, -inf and the distinct statistics, are np.unique's
    (which imports numpy.ma), except that NaNs are not merged into one."""
    pooled = np.sort(np.concatenate([stat_true, stat_false]))
    thresholds = np.concatenate([[-np.inf], pooled[:1],
                                 pooled[1:][pooled[1:] != pooled[:-1]]])
    st = np.sort(stat_true)
    sf = np.sort(stat_false)
    # P(statistic > threshold) via binary search on the sorted samples.
    p_d = 1.0 - np.searchsorted(st, thresholds, side="right") / len(st)
    p_fa = 1.0 - np.searchsorted(sf, thresholds, side="right") / len(sf)
    # Sort by (P_fa, P_d) so ties in P_fa are traversed in ascending P_d;
    # the trapezoid then integrates the upper staircase of the curve.
    order = np.lexsort((p_d, p_fa))
    p_fa, p_d = p_fa[order], p_d[order]
    auc = float(np.trapezoid(p_d, p_fa))
    return RocCurve(p_fa=p_fa, p_d=p_d, auc=auc)


def run_detection_mc(detector: Callable[..., np.ndarray],
                     trials: int, seed: int,
                     deterministic_signal: bool = True) -> RocCurve:
    """Monte-Carlo ROC of a detector, a callable (rows, window) such as a
    pipeline of ``build_detector``, over paired instances.

    Per trial, the true statistic is the max TK energy over samples
    [400, 500] of a signal+interference instance; the false statistic is
    the max over [200, 800] of an independent interference-only instance.

    The false-alarm window (601 samples) is six times the detection window
    (101 samples), so the false statistic is a maximum over six times as
    many samples. A detector that cannot see the pulse therefore scores
    an AUC below 0.5, not at chance: FIR_NUL_NC measures 0.188 (seed 0,
    2000 trials).

    Trials run in blocks of BLOCK through ``block_statistics``, whose
    statistics do not depend on the block size.  A run of at most
    MEMO_TRIALS trials takes its blocks from the memo, so a second
    detector run on the same seed and signal kind pays only for its own
    filtering and scoring.  A longer run could reuse none of its blocks:
    it bypasses the memo and simulates each block's rows only as far as
    the detector's ``reads``, the same statistics bit for bit.  A detector
    that reads whole rows keeps the memo's path: it would simulate the
    same samples, and rows freed as soon as their block is scored are
    paged in afresh for the next (16,700 more minor page faults in a
    2,000-trial IIR_BW1_NC run, 20 % slower on a 2-core x86-64 VM).  seed
    and trials must be integers, trials at least 1.
    """
    trials = check_nonnegative_int(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    memo = trials <= MEMO_TRIALS or tuple(
        getattr(detector, "reads", _FULL_ROWS)) == _FULL_ROWS
    blocks = [block_statistics(detector, seed, first,
                               min(BLOCK, trials - first),
                               deterministic_signal, memo)
              for first in range(0, trials, BLOCK)]
    stat_true, stat_false = (np.concatenate(s) for s in zip(*blocks))
    return roc_from_statistics(stat_true, stat_false)


def detector_metrics(tag: str) -> Dict[str, float]:
    """Static summary metrics for one detector's smoothing stage:
    group delay, white-noise gain, and response levels at the passband
    edge and the interference frequency."""
    from .analyze import frequency_response, measured_group_delay, \
        noncausal_response

    w_wb, w_nb = 2 * np.pi * SIGNAL_F_C, 2 * np.pi * INTERFERENCE_F_C
    if tag == "IIR_BW1":
        d = bw1_filterbank()
        q = d.q
        sigma0 = float(d.sigma[0, 0])
        h_wb = frequency_response(d.b[0], d.a, np.array([w_wb]))[0]
        h_nb = frequency_response(d.b[0], d.a, np.array([w_nb]))[0]
    elif tag == "IIR_BW1_NC":
        fwd, bwd = bw1_nc_smoother()
        q = 0.0
        sigma0 = float(fwd.sigma[0, 0])
        h_wb = noncausal_response(fwd, bwd, np.array([w_wb]))[0]
        h_nb = noncausal_response(fwd, bwd, np.array([w_nb]))[0]
    elif tag in ("IIR_BW0", "IIR_BW0_NC"):
        b, a = bw0_reference(causal=(tag == "IIR_BW0"))
        h = lambda w: frequency_response(b, a, np.array([w]))[0]
        if tag == "IIR_BW0":
            grid = np.linspace(1e-4, w_wb / 2, 64)
            q = float(np.mean(measured_group_delay(b, a, grid)))
            h_wb, h_nb = h(w_wb), h(w_nb)
            imp = run_filter(b, a, np.r_[1.0, np.zeros(9999)])
            sigma0 = float(np.sum(imp ** 2))
        else:
            q = 0.0
            h_wb, h_nb = h(w_wb) * h(-w_wb), h(w_nb) * h(-w_nb)
            imp = run_filter(b, a, np.r_[np.zeros(5000), 1.0,
                                         np.zeros(4999)])
            imp = run_filter(b, a, imp[::-1])[::-1]
            sigma0 = float(np.sum(imp ** 2))
    elif tag == "FIR_NUL_NC":
        q = 0.0
        sigma0 = 1.0   # no pre-filter: the smoothing path is the identity
        h_wb, h_nb = 1.0 + 0.0j, 1.0 + 0.0j
    else:
        raise ValueError(f"unknown detector tag {tag!r}; supported tags: "
                         + ", ".join(DETECTOR_TAGS))
    return {"tag": tag, "q": float(q), "sigma0": sigma0,
            "h_wb": float(abs(h_wb)), "h_nb": float(abs(h_nb))}
