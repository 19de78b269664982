"""Toy signing and commitment schemes, and the collision attacks on them.

Neither toy is secure; both are chosen so every game value is exactly
enumerable. The point is the structure: each scheme induces a collision
puzzle whose honest Col output, fed back into the scheme's own security
game, wins it with a probability computable in closed form.

The signing toy is conjugate coding through a public random table: keys
are (x, theta), the verification key is R(x || theta), and signing measures
the encoded qubits in message-chosen bases. Matching-basis positions are
deterministic, the rest are coin flips.

The commitment toy hashes (x, theta) through a public table and sends the
digest; the committed bit is the first bit of x. Opening reveals (x, theta).
Two sampler forms are derived from it: the literal one commits to a fixed
bit and attaches a fresh uniform bit to the answer, the coherent one
superposes both bit values before the digest is measured. The collision
attack succeeds only against the coherent form, and that gap is preserved
here as a documented behavior, not smoothed over.

Both toys take their public table R as an int64 code array (entry k is R
at key code k = x || theta) and build their games from it once per
instance, on the registers' big-endian codes. The tag scheme holds one
law: ``ToyMac.law``, the derived scheme's sampler law as the atoms of
vk || m || sigma, and a signature verifies exactly when its code is one of
those atoms. The commitment holds the receiver's table ok[y, b || key],
read against the Born law P[y, b || key] of a sampler form's state. Exact
game values are sums over the atoms and tables, and a collision attack
draws all its trials in one ``ColSampler.draw`` batch and scores them in
one comparison. The bit-string methods (``sign_law``, ``gen``, ``ver``,
``r2``) remain the single-call interface; the string views they read
(``table``, ``preimages``, ``classes``) are formatted on first read.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .dist import FiniteDist, marginal, run_numbers, runs, sd
from .errors import (
    ImpossibleConditionError,
    InstanceTooLargeError,
    RetryBudgetExceededError,
    StructureError,
)
from .dcrpuzz import (ColSampler, DcrScheme, random_function_table,
                      table_codes)
from .ncmo import DEFAULT_RETRY_BUDGET
from .qsim import born_weights

MAX_MAC_QUBITS = 6
MAX_COM_QUBITS = 4

# set-bit counts of the codes below 2^MAX_MAC_QUBITS
_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << MAX_MAC_QUBITS)])


@dataclass(frozen=True)
class GameReport:
    """Outcome of a security game, empirical and (when enumerable) exact."""

    game: str
    trials: int
    successes: int
    exact: float | None = None

    def __post_init__(self):
        if self.trials < 0 or not 0 <= self.successes <= max(self.trials, 0):
            raise StructureError("successes must lie within trials")

    @property
    def rate(self) -> float:
        if self.trials == 0:
            if self.exact is None:
                raise StructureError("empty report has no rate")
            return self.exact
        return self.successes / self.trials


def bits(k: int) -> list[str]:
    return [format(i, f"0{k}b") for i in range(1 << k)]


def _check_qubits(n: int, low: int, cap: int):
    if n > cap:
        raise InstanceTooLargeError(f"n={n} is past the {cap}-qubit cap")
    if n < low:
        raise StructureError(f"n must be {low}..{cap}")


# -- the signing toy ------------------------------------------------------------

class ToyMac:
    """Conjugate-coding one-time signatures behind a public table.

    The table R maps the 2n-bit key (x || theta) to a 2n-bit verification
    key. The private verifier keeps R's full preimage sets: a signature on
    m is accepted when some preimage of vk matches it on every position
    where the signing basis agrees with the encoding basis. Checking
    against the whole set (rather than one recorded key) keeps acceptance a
    property of vk alone, so any answer in the honest conditional verifies.
    """

    def __init__(self, n: int, lm: int, table: np.ndarray):
        _check_qubits(n, 1, MAX_MAC_QUBITS)
        if not 1 <= lm <= n:
            raise StructureError("message length must be 1..n")
        self.n = n
        self.lm = lm
        # vk_codes[k]: the verification key's code at key code k = x || theta
        self.vk_codes = table_codes(table, 2 * n, 2 * n)

    @functools.cached_property
    def table(self) -> dict[str, str]:
        """R as bit strings: x || theta -> vk."""
        keys = bits(2 * self.n)
        return dict(zip(keys, (keys[v] for v in self.vk_codes.tolist())))

    @functools.cached_property
    def preimages(self) -> dict[str, list[tuple[str, str]]]:
        """vk -> its (x, theta) preimages, in key order."""
        out: dict[str, list[tuple[str, str]]] = {}
        for key, vk in self.table.items():
            out.setdefault(vk, []).append((key[:self.n], key[self.n:]))
        return out

    @functools.cached_property
    def law(self) -> FiniteDist:
        """The derived scheme's sampler law over vk || m || sigma.

        Key and message are uniform; a signature is valid when it matches
        x wherever m and theta agree, and weighs 2^-(free positions). The
        atoms of keys that share a vk merge in key order.
        """
        n, lm, a = self.n, self.lm, 2 * self.lm
        w = _sign_weights(n, lm, np.arange(1 << lm)).reshape(-1)
        at = np.flatnonzero(w)  # key << a | m || sigma
        weights = w[at] * 2.0 ** -(2 * n + lm)
        del w  # the dense weights would otherwise outlive the merge
        codes = (self.vk_codes[at >> a] << a) | (at & ((1 << a) - 1))
        return FiniteDist.from_codes(2 * n + a, codes, weights)

    def accepts(self, vk, ans):
        """``ver`` on codes, ans = m || sigma. A signature verifies when
        some preimage of vk signs it, which is where the law has an atom."""
        codes = self.law.codes
        want = (vk << 2 * self.lm) | ans
        at = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
        return codes[at] == want

    def gen(self, rng: np.random.Generator) -> tuple[str, tuple[str, str]]:
        """(vk, signing key); the signing key is the encoded pair."""
        x = "".join(str(b) for b in rng.integers(0, 2, self.n))
        theta = "".join(str(b) for b in rng.integers(0, 2, self.n))
        return self.table[x + theta], (x, theta)

    def vk_law(self) -> FiniteDist:
        return FiniteDist.from_codes(
            2 * self.n, self.vk_codes, np.full(1 << 2 * self.n, 0.25 ** self.n))

    def sign_law(self, x: str, theta: str, m: str) -> FiniteDist:
        """Measure the first lm encoded qubits in bases chosen by m."""
        if len(m) != self.lm:
            raise StructureError(f"message must be {self.lm} bits")
        per_bit = []
        for i in range(self.lm):
            if m[i] == theta[i]:
                per_bit.append((x[i],))
            else:
                per_bit.append(("0", "1"))
        probs = {}
        for combo in itertools.product(*per_bit):
            sigma = "".join(combo)
            probs[sigma] = probs.get(sigma, 0.0) + 1.0
        total = sum(probs.values())
        return FiniteDist({k: v / total for k, v in probs.items()})

    def sign(self, x: str, theta: str, m: str,
             rng: np.random.Generator) -> str:
        return self.sign_law(x, theta, m).sample(rng)

    def ver(self, vk: str, m: str, sigma: str) -> bool:
        if len(m) != self.lm or len(sigma) != self.lm:
            return False
        for x, theta in self.preimages.get(vk, ()):
            if all(sigma[i] == x[i]
                   for i in range(self.lm) if m[i] == theta[i]):
                return True
        return False


def _sign_weights(n: int, lm: int, messages: np.ndarray) -> np.ndarray:
    """w[k, i, sigma]: probability that signing messages[i] under key code
    k = x || theta reads sigma. Codes are big-endian, like the strings."""
    keys = np.arange(1 << (2 * n))
    x = (keys >> (2 * n - lm)).astype(np.uint16)
    theta = ((keys >> (n - lm)) & ((1 << lm) - 1)).astype(np.uint16)
    agree = ~(messages.astype(np.uint16)[None, :] ^ theta[:, None])
    agree &= np.uint16((1 << lm) - 1)
    free = lm - _POPCOUNT[agree]
    sigma = np.arange(1 << lm, dtype=np.uint16)
    valid = ((sigma ^ x[:, None, None]) & agree[:, :, None]) == 0
    return np.where(valid, np.ldexp(1.0, -free)[:, :, None], 0.0)


def toy_mac(n: int, lm: int, rng: np.random.Generator) -> ToyMac:
    _check_qubits(n, 1, MAX_MAC_QUBITS)
    return ToyMac(n, lm, random_function_table(rng, 2 * n, 2 * n))


def mac_to_dcrpuzz(mac: ToyMac) -> DcrScheme:
    """puzz = vk, ans = message followed by its signature.

    The sampler runs key generation, draws a uniform message, and signs it.
    The table itself plays the role of public parameters, so the setup law
    is the trivial point; the scheme object carries the table.
    """
    return DcrScheme(puzz_len=2 * mac.n, ans_len=2 * mac.lm,
                     setup=FiniteDist.point(""), samp_laws={"": mac.law})


def mac_break_exact(mac: ToyMac) -> float:
    """Exact probability that an honest collision wins the forgery game.

    The game hands over (vk, m, sigma, m', sigma') and pays out when both
    pairs verify and the messages differ. Working per verification key
    keeps the quadratic pairing implicit: with q(m) the verified mass at
    message m, the win given vk is (sum q)^2 - sum q^2. Every atom of the
    law verifies, and every sum runs left to right in code order.
    """
    law, lm = mac.law, mac.lm
    vk = run_numbers(runs(law.codes >> 2 * lm)[1])
    msg_starts, msg_sizes = runs(law.codes >> lm)
    mass = np.bincount(vk, law.weights)
    q = law.weights / mass[vk]
    per_m = np.bincount(run_numbers(msg_sizes), q)
    terms = mass * (np.bincount(vk, q) ** 2
                    - np.bincount(vk[msg_starts], per_m * per_m))
    return float(np.cumsum(terms)[-1])


def mac_break_via_collision(mac: ToyMac, trials: int,
                            rng: np.random.Generator,
                            source: str = "col") -> GameReport:
    """Play the forgery game with collision answers.

    source 'col' draws honest collisions; 'duplicate' reuses one honest
    answer twice, which always loses on the distinctness clause.
    """
    if source not in ("col", "duplicate"):
        raise StructureError(f"unknown collision source {source!r}")
    lm = mac.lm
    vk, ans, ans2 = ColSampler(mac_to_dcrpuzz(mac), "").draw(rng, trials)
    if source == "duplicate":
        ans2 = ans
    wins = (((ans >> lm) != (ans2 >> lm)) & mac.accepts(vk, ans)
            & mac.accepts(vk, ans2))
    exact = mac_break_exact(mac) if source == "col" else 0.0
    return GameReport(game=f"mac-forgery[{source}]", trials=trials,
                      successes=int(wins.sum()), exact=exact)


def algorithm_c_mac(mac: ToyMac, rng: np.random.Generator,
                    budget: int = DEFAULT_RETRY_BUDGET):
    """Reference collision sampler: rerun key generation until the same
    verification key reappears, then sign a fresh uniform message.

    Returns (vk, m, sigma, m', sigma', retries); its law is exactly the
    collision law of the derived scheme, because rerunning gen conditions
    the key pair on vk.
    """
    vk, (x, theta) = mac.gen(rng)
    m = "".join(str(b) for b in rng.integers(0, 2, mac.lm))
    sigma = mac.sign(x, theta, m, rng)
    for retries in range(budget):
        vk2, (x2, theta2) = mac.gen(rng)
        if vk2 == vk:
            m2 = "".join(str(b) for b in rng.integers(0, 2, mac.lm))
            sigma2 = mac.sign(x2, theta2, m2, rng)
            return vk, m, sigma, m2, sigma2, retries
    raise RetryBudgetExceededError(
        f"verification key never reappeared within {budget} reruns")


def algorithm_c_mac_law(mac: ToyMac) -> FiniteDist:
    """Exact law of the rejection sampler's (vk, m, sigma, m', sigma')."""
    n, lm = mac.n, mac.lm
    key_w = 1.0 / (1 << (2 * n))
    m_w = 1.0 / (1 << lm)
    probs: dict[str, float] = {}
    for key, vk in mac.table.items():
        x, theta = key[:n], key[n:]
        pre = mac.preimages[vk]
        for m in bits(lm):
            first = mac.sign_law(x, theta, m)
            for sigma, p1 in first.items():
                base = key_w * m_w * p1
                for x2, theta2 in pre:
                    for m2 in bits(lm):
                        second = mac.sign_law(x2, theta2, m2)
                        for sigma2, p2 in second.items():
                            flat = vk + m + sigma + m2 + sigma2
                            w = base * m_w * p2 / len(pre)
                            probs[flat] = probs.get(flat, 0.0) + w
    return FiniteDist(probs)


def naive_forge_win_exact(mac: ToyMac) -> float:
    """A classical forger: measure the signing key once in the computational
    basis and submit that readout under two fixed distinct messages."""
    n, lm = mac.n, mac.lm
    m0, m1 = 0, 1 << (lm - 1)
    # reading every qubit in the computational basis signs the message 0..0
    reads = _sign_weights(n, lm, np.array([m0]))[:, 0]
    vk, sigma = mac.vk_codes[:, None], np.arange(1 << lm)
    both = (mac.accepts(vk, (m0 << lm) | sigma)
            & mac.accepts(vk, (m1 << lm) | sigma))
    return float(np.sum(reads * both)) * 2.0 ** (-2 * n)


# -- the commitment toy ------------------------------------------------------------

class ToyCommitment:
    """Hash-and-reveal bit commitment through a public table.

    The sender superposes (x, theta) with the committed bit as x's first
    bit, hashes through R into a digest register, and sends the measured
    digest. Opening reveals (x, theta); the receiver recomputes the digest
    and checks the first bit of x.
    """

    def __init__(self, n: int, c: int, table: np.ndarray):
        _check_qubits(n, 2, MAX_COM_QUBITS)
        if not 1 <= c < n:
            raise StructureError("compression must be 1..n-1")
        self.n = n
        self.c = c
        # digest_codes[k]: the digest's code at key code k
        self.digest_codes = table_codes(table, 2 * n, n - c)

    @functools.cached_property
    def table(self) -> dict[str, str]:
        """R as bit strings: x || theta -> digest."""
        digests = bits(self.digest_len)
        return dict(zip(bits(2 * self.n),
                        (digests[y] for y in self.digest_codes.tolist())))

    @functools.cached_property
    def classes(self) -> dict[str, tuple[list[str], list[str]]]:
        """digest -> its preimages split by the committed bit x[0], as bit
        strings, digests in the order of their first key."""
        out: dict[str, tuple[list[str], list[str]]] = {}
        for key, y in self.table.items():
            out.setdefault(y, ([], []))[int(key[0])].append(key)
        return out

    @functools.cached_property
    def parity_counts(self) -> np.ndarray:
        """counts[b, y]: the keys of committed bit b that hash to digest y.
        The bit is the key code's top bit, so each half is one bincount."""
        return np.stack([np.bincount(half, minlength=1 << self.digest_len)
                         for half in self.digest_codes.reshape(2, -1)])

    @functools.cached_property
    def opens(self) -> np.ndarray:
        """ok[y, b || key]: ``r2`` as a table over digest and answer codes.
        An opening passes when key hashes to y and its first bit is b."""
        keys = np.arange(1 << (2 * self.n))
        ok = np.zeros((1 << self.digest_len, 2, len(keys)), dtype=bool)
        ok[self.digest_codes, keys >> (2 * self.n - 1), keys] = True
        return ok.reshape(1 << self.digest_len, -1)

    @property
    def digest_len(self) -> int:
        return self.n - self.c

    def preimage_list(self, y: str, b: int) -> list[str]:
        return self.classes.get(y, ([], []))[b]

    def s1_law(self, b: int) -> FiniteDist:
        half = 1 << (2 * self.n - 1)
        return FiniteDist.from_codes(self.digest_len,
                                     np.arange(1 << self.digest_len),
                                     self.parity_counts[b] / half)

    def s1(self, b: int, rng: np.random.Generator) -> tuple[str, list[str]]:
        """Commit: returns the digest and the residual preimage support."""
        y = self.s1_law(b).sample(rng)
        return y, self.preimage_list(y, b)

    def s2(self, b: int, support: list[str],
           rng: np.random.Generator) -> str:
        """Open: measure the residual state. The bit argument is carried
        for interface symmetry; the measurement cannot depend on it."""
        if not support:
            raise StructureError("empty sender state")
        return support[int(rng.integers(len(support)))]

    def r2(self, y: str, s2: str, b: int) -> bool:
        return (len(s2) == 2 * self.n and self.table.get(s2) == y
                and s2[0] == str(b))

    def hiding_sd(self) -> float:
        return sd(self.s1_law(0), self.s1_law(1))


def toy_commitment(n: int, c: int, rng: np.random.Generator) -> ToyCommitment:
    _check_qubits(n, 2, MAX_COM_QUBITS)
    return ToyCommitment(n, c, random_function_table(rng, 2 * n, n - c))


def balanced_table(n: int, c: int) -> np.ndarray:
    """A deterministic table whose digest classes are parity-balanced or
    single-parity.

    Every class except two holds equally many keys from each half of the
    domain (split by the committed bit); the last two digests each hold two
    keys of a single, opposite parity. The halves are equal-sized, so
    single-parity classes can only exist in such compensating pairs. This
    is the shape under which the coherent collision attack's success rate
    collapses to the closed form (1/2) * Pr[digest has both parities].
    """
    _check_qubits(n, 2, MAX_COM_QUBITS)
    if not 1 <= c < n:
        raise StructureError("compression must be 1..n-1")
    digests = 1 << (n - c)
    if digests < 3:
        raise StructureError("need at least 4 digest values to pin two "
                             "single-parity classes")
    half = 1 << (2 * n - 1)
    spread = digests - 2
    per = (half - 2) // spread
    if per * spread != half - 2:
        raise StructureError(
            f"half size {half} minus 2 must split evenly over {spread} "
            f"balanced classes")
    # each half (bit 0, then bit 1) opens with its two single-parity keys
    balanced = np.arange(half - 2) // per
    return np.concatenate(([digests - 2] * 2, balanced,
                           [digests - 1] * 2, balanced))


def com_to_dcrpuzz(com: ToyCommitment, form: str) -> DcrScheme:
    """puzz = digest, ans = committed bit followed by the opened key.

    The coherent form superposes both bit values before the digest
    collapses, so the answer's bit is determined by the key. The literal
    form commits to 0 and pairs the opening with an independent uniform
    bit, which is the direct reading of running the sender once.
    """
    return DcrScheme(puzz_len=com.digest_len, ans_len=1 + 2 * com.n,
                     setup=FiniteDist.point(""),
                     states={"": _com_state(com, form)})


def _com_state(com: ToyCommitment, form: str) -> np.ndarray:
    """The sampler state of ``com_to_dcrpuzz``, as amplitudes."""
    n = com.n
    if form == "coherent":
        keys = np.arange(1 << (2 * n))
        bit = keys >> (2 * n - 1)             # the bit rides on the key
    elif form == "literal":
        zeros = np.arange(1 << (2 * n - 1))   # the keys whose first bit is 0
        keys, bit = np.tile(zeros, 2), np.repeat([0, 1], len(zeros))
    else:
        raise StructureError(f"unknown sampler form {form!r}")
    amps = np.zeros(1 << (com.digest_len + 1 + 2 * n), dtype=complex)
    amps[(com.digest_codes[keys] << (1 + 2 * n)) | (bit << (2 * n)) | keys] = (
        1.0 / (1 << n))
    return amps


def _com_law(com: ToyCommitment, amps: np.ndarray) -> np.ndarray:
    """P[y, b || key], the Born law of a sampler state over digest and
    answer codes."""
    return born_weights(amps).reshape(1 << com.digest_len, -1)


def both_parity_mass(com: ToyCommitment, form: str = "coherent") -> float:
    """Probability that the sampled digest has preimages of both parities."""
    law = _com_law(com, _com_state(com, form))
    both = (com.parity_counts > 0).all(axis=0)
    return float(law[both].sum())


def com_break_exact(com: ToyCommitment, scheme: DcrScheme) -> float:
    """Exact probability that an honest collision opens both ways.

    Success means the two answers carry different bits and each opening
    passes the receiver's check. With A_b(y) the mass of digest y's
    passing answers of bit b and m(y) the digest's mass, that is
    sum_y 2 A_0(y) A_1(y) / m(y).
    """
    law = _com_law(com, scheme.state(""))
    passing = (law * com.opens).reshape(len(law), 2, -1).sum(axis=2)
    mass = law.sum(axis=1)
    seen = mass > 0.0
    return float(np.sum(2.0 * passing[seen, 0] * passing[seen, 1]
                        / mass[seen]))


def com_break_via_collision(com: ToyCommitment, trials: int,
                            rng: np.random.Generator,
                            form: str = "coherent",
                            source: str = "col") -> GameReport:
    if source not in ("col", "duplicate"):
        raise StructureError(f"unknown collision source {source!r}")
    scheme = com_to_dcrpuzz(com, form)
    half = 2 * com.n
    y, ans, ans2 = ColSampler(scheme, "").draw(rng, trials)
    if source == "duplicate":
        ans2 = ans
    ok = com.opens
    wins = ((ans >> half) != (ans2 >> half)) & ok[y, ans] & ok[y, ans2]
    exact = com_break_exact(com, scheme) if source == "col" else 0.0
    return GameReport(game=f"commitment-binding[{form},{source}]",
                      trials=trials, successes=int(wins.sum()), exact=exact)


def algorithm_c_com(com: ToyCommitment, rng: np.random.Generator,
                    form: str = "literal") -> tuple[str, str, str]:
    """Reference double-opener: commit once, regenerate the sender state
    conditioned on the digest, and open once to each bit.

    The literal reading regenerates from the bit-0 commit, so its second
    opening carries a bit-0 key and the receiver rejects it. The coherent
    reading conditions the superposed sender on (digest, bit); a digest
    whose class is single-parity makes the bit-1 conditioning impossible,
    which is raised rather than retried away.
    """
    if form == "literal":
        y, support = com.s1(0, rng)
        s2 = com.s2(0, list(support), rng)
        regen = com.preimage_list(y, 0)
        s2p = com.s2(1, regen, rng)
        return y, s2, s2p
    if form != "coherent":
        raise StructureError(f"unknown sampler form {form!r}")
    scheme_law = com_to_dcrpuzz(com, "coherent").samp_law("")
    y = marginal(scheme_law, range(com.digest_len)).sample(rng)
    lists = com.preimage_list(y, 0), com.preimage_list(y, 1)
    for b in (0, 1):
        if not lists[b]:
            raise ImpossibleConditionError(
                f"digest {y} has no bit-{b} preimages to regenerate from")
    return y, com.s2(0, lists[0], rng), com.s2(1, lists[1], rng)


def algorithm_c_com_success(com: ToyCommitment, form: str = "literal") -> float:
    """Exact probability that the double-opener's two openings both verify.

    Digests whose conditioning is impossible count as failures.
    """
    if form == "literal":
        y_law = com.s1_law(0)
    elif form == "coherent":
        scheme_law = com_to_dcrpuzz(com, "coherent").samp_law("")
        y_law = marginal(scheme_law, range(com.digest_len))
    else:
        raise StructureError(f"unknown sampler form {form!r}")
    win = 0.0
    for y, w in y_law.items():
        src0 = com.preimage_list(y, 0)
        src1 = com.preimage_list(y, 0) if form == "literal" \
            else com.preimage_list(y, 1)
        if not src0 or not src1:
            continue
        ok0 = sum(com.r2(y, s, 0) for s in src0) / len(src0)
        ok1 = sum(com.r2(y, s, 1) for s in src1) / len(src1)
        win += w * ok0 * ok1
    return win


# -- the audit of opening success and hiding ------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Exact per-digest opening quantities against a threshold 1 - 1/p."""

    p: float
    success0: dict
    success1: dict
    g0: frozenset
    g1: frozenset
    hiding_sd: float
    good_mass: float          # mass of G0 and G1's intersection under b=0
    bound: float              # good_mass * (1 - 1/p)^2
    both_open: float          # E_y[success0 * success1]

    @property
    def holds(self) -> bool:
        return self.both_open >= self.bound - 1e-12


def audit_quantities(y_law: FiniteDist, success0: dict, success1: dict,
                     hiding: float, p: float) -> AuditReport:
    if p < 1:
        raise StructureError("threshold parameter p must be >= 1")
    thr = 1.0 - 1.0 / p
    g0 = frozenset(y for y in y_law.support if success0.get(y, 0.0) >= thr)
    g1 = frozenset(y for y in y_law.support if success1.get(y, 0.0) >= thr)
    good = sum(y_law.prob(y) for y in g0 & g1)
    both = sum(y_law.prob(y) * success0.get(y, 0.0) * success1.get(y, 0.0)
               for y in y_law.support)
    return AuditReport(p=p, success0=dict(success0), success1=dict(success1),
                       g0=g0, g1=g1, hiding_sd=hiding, good_mass=good,
                       bound=good * thr * thr, both_open=both)


def hiding_and_correctness_audit(com: ToyCommitment, p: float) -> AuditReport:
    """Enumerate per-digest opening success for both bits and check that
    the double-opening mass clears the thresholded lower bound."""
    y_law = com.s1_law(0)
    success0, success1 = {}, {}
    for y in set(com.s1_law(0).support) | set(com.s1_law(1).support):
        for b, out in ((0, success0), (1, success1)):
            pre = com.preimage_list(y, b)
            out[y] = (sum(com.r2(y, s, b) for s in pre) / len(pre)
                      if pre else 0.0)
    return audit_quantities(y_law, success0, success1, com.hiding_sd(), p)
