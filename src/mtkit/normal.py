"""Normal draws equal, bit for bit, to those of numpy's default_rng.

`default_rng_normal(seed, loc, scale, count)` yields the values of numpy's
`default_rng(seed).normal(loc, scale, count)` for any int seed >= 0,
without importing numpy's random module (about 6 MB of RSS). It copies
numpy's three layers:

- SeedSequence hashes the seed's 32-bit words into four 64-bit words;
- PCG64 (O'Neill 2014) steps a 128-bit LCG and returns the XSL-RR output of
  the new state;
- numpy's 256-layer ziggurat (Marsaglia & Tsang 2000) turns each output into
  a standard normal. Its tail and wedge paths call math.log1p and math.exp,
  the libm functions numpy's C code calls. Its tables cannot be recomputed
  to the bit, so they are package data copied from numpy's compiled library.

Each value is `loc + scale * z`, in numpy's form: the `loc +` turns a -0.0
draw into +0.0."""

import math
from importlib import resources

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# the constants of numpy's SeedSequence (a pool of four words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128

# ziggurat_nor_r and ziggurat_nor_inv_r, as numpy's C literals round them
_R = 3.6541528853610087963519472518
_INV_R = 0.27366123732975827203338247596


def _seed_words(seed: int) -> list[int]:
    """The four 64-bit words of SeedSequence(seed).generate_state(4, uint64)."""
    entropy = [seed & _MASK32]  # the seed's 32-bit words, least significant first
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, state = _INIT_B, []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        state.append(value ^ value >> 16)
    # numpy views the uint32 words as little-endian uint64
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


def _pcg64(seed: int):
    """Yield the 64-bit outputs of numpy's PCG64(seed), in order."""
    initstate_hi, initstate_lo, initseq_hi, initseq_lo = _seed_words(seed)
    inc = ((initseq_hi << 64 | initseq_lo) << 1 | 1) & _MASK128
    state = (inc + (initstate_hi << 64 | initstate_lo)) & _MASK128  # one step from 0, plus the seed
    state = (state * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        high = state >> 64
        low = (high ^ state) & _MASK64
        rot = high >> 58
        yield (low >> rot | low << (64 - rot)) & _MASK64


def _ziggurat_tables() -> tuple[list[int], list[float], list[float]]:
    """numpy's ki_double, wi_double and fi_double, from the package data."""
    text = resources.files("mtkit.data").joinpath("ziggurat.txt").read_text("ascii")
    rows = [line.split() for line in text.splitlines() if line and not line.startswith("#")]
    return ([int(k, 16) for k, _, _ in rows], [float.fromhex(w) for _, w, _ in rows],
            [float.fromhex(f) for _, _, f in rows])


def default_rng_normal(seed: int, loc: float, scale: float, count: int):
    """Yield the values of numpy's default_rng(seed).normal(loc, scale, count)."""
    ki, wi, fi = _ziggurat_tables()
    word = _pcg64(seed).__next__
    log1p, exp = math.log1p, math.exp

    def uniform():  # numpy's next_double: 53 bits in [0, 1)
        return (word() >> 11) * 2.0 ** -53

    for _ in range(count):
        while True:
            r = word()
            idx = r & 0xFF
            rabs = r >> 9 & 0x000FFFFFFFFFFFFF
            z = rabs * wi[idx]
            if r >> 8 & 1:
                z = -z
            if rabs < ki[idx]:
                break
            if idx == 0:  # the tail; 1 - U, as numpy takes it, never logs 0
                while True:
                    xx = -_INV_R * log1p(-uniform())
                    yy = -log1p(-uniform())
                    if yy + yy > xx * xx:
                        break
                z = -(_R + xx) if rabs >> 8 & 1 else _R + xx
                break
            if (fi[idx - 1] - fi[idx]) * uniform() + fi[idx] < exp(-0.5 * z * z):  # the wedge
                break
        yield loc + scale * z
