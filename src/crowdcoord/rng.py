"""NumPy's seeded streams, drawn without NumPy.

The log track takes only a few draws per project, so ``cohort`` and ``synth``
draw them here, in pure Python, and start without NumPy.  Each draw is the one
``numpy.random.default_rng(seed)`` gives, bit for bit:

- ``SeedSequence``'s pool-4 hash turns the seed's 32-bit words into state;
- PCG64, the XSL-RR 128/64 generator (O'Neill 2014), makes 64-bit outputs, and
  a 32-bit draw takes the low half and keeps the high half for the next one;
- ``integers`` is Lemire's bounded draw (Lemire 2019), ``poisson`` NumPy's
  multiplication method below lam = 10 and its PTRS sampler from 10 up, and
  ``permutation`` its backwards Fisher-Yates with masked rejection.
"""

from __future__ import annotations

import math

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
# Generator.poisson refuses a lam above int64's maximum less ten of its square roots
POISSON_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10
_LOGGAM = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
           -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
           6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
           -1.39243221690590e+00)


def _seed_state(entropy: tuple[int, ...], n_words: int) -> list[int]:
    """``SeedSequence(list(entropy)).generate_state(n_words)``, as 32-bit words."""
    words = []
    for value in entropy:  # each integer as its 32-bit words, low first; 0 is one word
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _M32)
        while value := value >> 32:
            words.append(value & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, hash_const = [], _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return state


def spawn_seed(*entropy: int) -> int:
    """One 32-bit seed per part of a seeded run, mixed from its entropy, e.g. (seed, index)."""
    return _seed_state(entropy, 1)[0]


def _loggam(x: float) -> float:
    """log(Gamma(x)) for x >= 1, as NumPy's samplers compute it."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM[9]
    for coeff in reversed(_LOGGAM[:9]):
        gl0 = gl0 * x2 + coeff
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


class Generator:
    """The stream of ``numpy.random.default_rng(seed)``, for the draws below."""

    def __init__(self, seed: int):
        w = _seed_state((seed,), 8)  # generate_state(4, uint64): word pairs, low first
        state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        inc = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self._inc = (inc << 1 | 1) & _M128
        self._state = ((self._inc + state) * _PCG_MULT + self._inc) & _M128
        self._high = None  # the unused high half of the last 64-bit output a 32-bit draw took

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._high is not None:
            high, self._high = self._high, None
            return high
        x = self._next64()
        self._high = x >> 32
        return x & _M32

    def random(self) -> float:
        """A float in [0, 1): 53 bits of one 64-bit output."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """An integer in [low, high), which must lie in int64 and span fewer than 2**32."""
        if not (-2**63 <= low < high <= 2**63 and high - low <= _M32):
            raise ValueError(f"integers needs low < high in int64 with high - low < 2**32, "
                             f"got {low}, {high}")
        span = high - low
        if span == 1:
            return low
        m = self._next32() * span
        if m & _M32 < span:  # rejection only below 2**32 mod span, which is < span
            threshold = (2**32 - span) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def poisson(self, lam: float) -> int:
        """A Poisson(lam) count, for 0 <= lam <= POISSON_LAM_MAX."""
        if not 0 <= lam <= POISSON_LAM_MAX:  # also refuses nan
            raise ValueError(f"poisson needs 0 <= lam <= {POISSON_LAM_MAX}, got {lam}")
        if lam >= 10:
            return self._poisson_ptrs(lam)
        if lam == 0:
            return 0
        count, prod, enlam = 0, 1.0, math.exp(-lam)
        while True:
            prod *= self.random()
            if prod <= enlam:
                return count
            count += 1

    def _poisson_ptrs(self, lam: float) -> int:
        """Hormann's transformed rejection with squeeze, as NumPy writes it."""
        slam, loglam = math.sqrt(lam), math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            if us == 0:  # NumPy's k is then 2a/0 cast to int64, negative, so rejected
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            log_v = math.log(v) if v else -math.inf
            if (log_v + math.log(invalpha) - math.log(a / (us * us) + b)
                    <= -lam + k * loglam - _loggam(float(k + 1))):
                return k

    def permutation(self, n: int) -> list[int]:
        """A permutation of range(n), for 0 <= n <= 2**32."""
        if not 0 <= n <= 2**32:
            raise ValueError(f"permutation needs 0 <= n <= 2**32, got {n}")
        order = list(range(n))
        draw = self._next32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = draw() & mask
            while j > i:
                j = draw() & mask
            order[i], order[j] = order[j], order[i]
        return order
