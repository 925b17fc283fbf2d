"""Bloch Hamiltonians on the 3-torus and on continuum boxes.

Models are immutable after construction and their evaluators are pure.
Evaluation is vectorized: every entry point accepts a single k-point of
shape ``(3,)`` or a batch of shape ``(..., 3)`` and returns arrays with
matching leading dimensions.

A model on n = 2^s bands holds one representation.  At construction its
terms are expanded once on the 4^s Pauli words, which span every n x n
matrix, so the expansion is exact: each word P carries the coefficients of
the terms M with tr(P M) / n != 0, that weight folded into their
amplitudes.  ``to_config`` writes the words.  Evaluation reads one harmonic
table (``_Harmonics``), built from the words at construction: the distinct
cos harmonics, sin harmonics and monomial exponents, each an integer array,
with one amplitude matrix per kind.  A two-band model H = h0 + h . sigma
tabulates its words I, X, Y and Z, reads h0 and h off one evaluation, and
takes its spectrum h0 -/+ |h| and eigenvectors in closed form.  A model
with more bands tabulates the entries of H and calls the LAPACK
eigensolver.  dH/dk reads the same harmonics with per-axis amplitudes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DomainError

TWO_PI = 2.0 * math.pi

HERMITICITY_TOL = 1e-12
REALITY_TOL = 1e-12
# Pauli weights at or below this are rounding noise of an absent word
WORD_WEIGHT_TOL = 1e-14
# a computed gap is off by rounding of order 1e-15 of the scale of H; a
# bound on how far a gap moves allows this fraction of that scale on top
GAP_ROUNDING = 1e-12

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_word(word):
    """Kronecker product of single-site Pauli matrices, e.g. ``"ZY"``."""
    mat = np.array([[1.0 + 0.0j]])
    for ch in word.upper():
        if ch not in PAULI:
            raise ConfigError(f"unknown Pauli letter {ch!r} in word {word!r}")
        mat = np.kron(mat, PAULI[ch])
    return mat


@functools.cache
def _pauli_basis(sites):
    """The 4^sites Pauli words in IXYZ-lexicographic order, and their
    matrices stacked to shape (4^sites, 2^sites, 2^sites)."""
    words = tuple("".join(w) for w in itertools.product(PAULI, repeat=sites))
    mats = np.stack([pauli_word(w) for w in words])
    mats.flags.writeable = False
    return words, mats


def _anticommute(a, b):
    """Whether two Pauli words anticommute: their letters differ, neither
    being I, at an odd number of sites."""
    return sum(x != y and "I" not in (x, y) for x, y in zip(a, b)) % 2 == 1


def _gap_slopes(words, domain):
    """The slope table behind ``BlochModel.gap_drift``.

    Each non-identity word w gets per-axis constants L_{w,i} >= |d c_w/dk_i|
    anywhere in the domain: sum |a| |n_i| over its cos and sin harmonics,
    and |a| n_i e^(|n| - 1) over its monomials on a box of half-extent e.
    Words whose constants all vanish are dropped, and the rest are grouped
    greedily, in order, into families of mutually anticommuting words.
    Returns the kept words, their constants (words x 3), the families (index
    arrays into them) and the scale sum |a| (sum |a| e^|n| for monomials)
    that bounds the norm of H in the domain.
    """
    kept, slopes, scale = [], [], 0.0
    for word, spec in words:
        slope = np.zeros(3)
        for kind, nvec, amp in spec.entries:
            n = np.abs(nvec)
            size = domain.extent ** int(n.sum()) if kind == "poly" else 1.0
            scale += abs(amp) * size
            slope += abs(amp) * n * (size / domain.extent if kind == "poly" else 1.0)
        if set(word) != {"I"} and np.any(slope):
            kept.append(word)
            slopes.append(slope)
    families = []
    for w, word in enumerate(kept):
        for family in families:
            if all(_anticommute(word, kept[v]) for v in family):
                family.append(w)
                break
        else:
            families.append([w])
    return (tuple(kept), np.reshape(slopes, (-1, 3)),
            tuple(np.array(f) for f in families), scale)


def reduce_torus(coords):
    """Reduce torus momenta to the fundamental domain [-pi, pi)^3.

    Bitwise equal to ``(k + pi) % 2 pi - pi``: np.remainder is fmod moved
    into [0, 2 pi), and the final - pi drops the sign of a zero remainder.
    """
    r = np.fmod(np.asarray(coords, dtype=float) + math.pi, TWO_PI)
    return r + TWO_PI * (r < 0) - math.pi


def torus_delta(a, b):
    """Shortest displacement a - b on the torus, componentwise in [-pi, pi)."""
    return reduce_torus(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def _integer(value, what):
    """``value`` as an int; ConfigError unless it is a whole number."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return whole


@dataclass(frozen=True)
class Domain:
    """Momentum-space domain: the 3-torus or a centered cube.

    ``extent`` is the half-width of the continuum box, i.e. the box is
    ``[-extent, extent]^3``.
    """

    kind: str  # "torus" | "box"
    extent: float | None = None

    def __post_init__(self):
        if self.kind not in ("torus", "box"):
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if self.kind == "box":
            if self.extent is None or not (math.isfinite(self.extent) and self.extent > 0):
                raise ConfigError("box domain requires a finite positive extent")

    @property
    def is_torus(self):
        return self.kind == "torus"

    def contains(self, k):
        if self.is_torus:
            return np.ones(np.shape(k)[:-1], dtype=bool) if np.ndim(k) > 1 else True
        return np.all(np.abs(np.asarray(k, dtype=float)) <= self.extent + 1e-12, axis=-1)

    def check(self, k):
        if not self.is_torus and not np.all(self.contains(k)):
            raise DomainError(f"k-point outside continuum box [-{self.extent}, {self.extent}]^3")

    def to_dict(self):
        return {"type": "torus"} if self.is_torus else {"type": "box", "extent": self.extent}


TORUS = Domain("torus")


def as_k_array(k):
    """Coerce a sequence or array to a float array of shape (..., 3)."""
    arr = np.asarray(k, dtype=float)
    if arr.shape[-1] != 3:
        raise ValueError(f"expected 3 momentum components, got shape {arr.shape}")
    return arr


class CoefficientSpec:
    """Scalar function of k built from cos/sin harmonics and monomials: the
    validated input and serialized form of a model's coefficients.

    Each entry is ``(kind, nvec, amplitude)`` with kind in {"cos", "sin",
    "poly"}: ``cos`` and ``sin`` use the integer harmonic vector n in
    ``a*cos(n.k)`` / ``a*sin(n.k)``; ``poly`` contributes the monomial
    ``a * kx^n0 * ky^n1 * kz^n2`` (continuum models only).  Amplitudes must
    be finite, n whole numbers and monomial exponents non-negative.  A spec
    is not evaluated itself: models and two-band fields tabulate their specs
    in one ``_Harmonics`` table.
    """

    def __init__(self, entries):
        cleaned = []
        for kind, nvec, amp in entries:
            if kind not in ("cos", "sin", "poly"):
                raise ConfigError(f"unknown coefficient kind {kind!r}")
            nvec = tuple(_integer(v, "harmonic/exponent entry") for v in nvec)
            if len(nvec) != 3:
                raise ConfigError("harmonic/exponent vector must have 3 entries")
            if kind == "poly" and min(nvec) < 0:
                raise ConfigError(f"monomial exponents must be non-negative, got {nvec}")
            amp = float(amp)
            if not math.isfinite(amp):
                raise ConfigError(f"coefficient amplitude must be finite, got {amp}")
            cleaned.append((kind, nvec, amp))
        self.entries = tuple(cleaned)

    def to_dict(self):
        return [{"kind": kind, "harmonic": list(nvec), "amplitude": amp}
                for kind, nvec, amp in self.entries]

    @classmethod
    def from_dict(cls, data):
        return cls((item["kind"], item["harmonic"], item["amplitude"]) for item in data)


def _rows(kind, kt, n):
    """cos(k.n), sin(k.n) or (``poly``) k^n, as repeated products, for each
    integer row n at the points of kt (3 x points); shape (h, points)."""
    if kind != "poly":
        phase = n[:, 0, None] * kt[0] + n[:, 1, None] * kt[1] + n[:, 2, None] * kt[2]
        return np.cos(phase) if kind == "cos" else np.sin(phase)
    out = np.ones((len(n), kt.shape[1]))
    for axis, exps in enumerate(n.T):
        for power in range(1, exps.max() + 1):
            out = out * np.where(exps[:, None] >= power, kt[axis], 1.0)
    return out


class _Harmonics:
    """One table of the distinct harmonics of some coefficient columns.

    ``columns`` holds one entry list (as ``CoefficientSpec.entries``) per
    column.  Each kind keeps its distinct integer rows n (h x 3) and one
    amplitude matrix A (h x columns); a row repeated in a column sums.  The
    columns at k are sum_kind f(k, n) A, with f = cos(k.n), sin(k.n) or k^n.
    The gradient reads the same harmonics with per-axis amplitudes n_i A, one
    block of columns per axis: on sin(k.n), negated, for cos rows; on cos(k.n)
    for sin rows; on k^(n - e_i) for monomials.  Rows whose amplitudes all
    vanish (constants, n_i = 0) are dropped from the gradient.

    Results come columns first, shape (columns, ...), and are summed by
    einsum along the points: its sums run in row order whatever the number
    of points (BLAS's do not), so one k-point and a batch agree bit for bit.
    """

    def __init__(self, columns):
        self.width = len(columns)
        amps = {}  # (kind, n) -> amplitude in each column, in order of first use
        for col, entries in enumerate(columns):
            for kind, nvec, amp in entries:
                amps.setdefault((kind, nvec), np.zeros(self.width))[col] += amp
        self.value, self.slope = [], []
        for kind in ("cos", "sin", "poly"):
            keys = [key for key in amps if key[0] == kind]
            if not keys:
                continue
            n = np.array([nvec for _, nvec in keys])
            a = np.array([amps[key] for key in keys])
            self.value.append((kind, n, a))
            per_axis = n[:, :, None] * a[:, None, :]  # (h, axis, column)
            if kind == "poly":  # row (h, i): exponents n - e_i, amplitudes in block i
                eye = np.eye(3, dtype=int)
                rows = (n[:, None, :] - eye).reshape(-1, 3)
                d = (per_axis[:, :, None, :] * eye[:, :, None]).reshape(len(rows), -1)
            else:  # d cos(k.n) = -n sin(k.n) dk and d sin(k.n) = n cos(k.n) dk
                rows, d = n, per_axis.reshape(len(n), -1) * (-1.0 if kind == "cos" else 1.0)
                kind = "sin" if kind == "cos" else "cos"
            keep = np.any(d != 0, axis=1)
            if np.any(keep):
                self.slope.append((kind, rows[keep], d[keep]))

    def __call__(self, k):
        """The columns at k; shape (columns, ...)."""
        return self._sum(self.value, k, (self.width,))

    def gradient(self, k):
        """d/dk_i of the columns at k; shape (3, columns, ...)."""
        return self._sum(self.slope, k, (3, self.width))

    @staticmethod
    def _sum(blocks, k, lead):
        if not blocks:
            return np.zeros(lead + k.shape[:-1])
        kt = np.ascontiguousarray(k.reshape(-1, 3).T)
        rows = np.concatenate([_rows(kind, kt, n) for kind, n, _ in blocks])
        out = np.einsum("hc,hp->cp", np.concatenate([a for *_, a in blocks]), rows)
        return out.reshape(lead + k.shape[:-1])


@dataclass(frozen=True)
class BlochModel:
    """A family of Hermitian Bloch Hamiltonians over a momentum domain.

    ``terms`` is a tuple of ``(CoefficientSpec, matrix)`` pairs; the
    Hamiltonian is the coefficient-weighted sum of the (constant) matrices.
    ``reality`` marks space-time-inversion-symmetric models, whose matrices
    are real symmetric in the chosen basis.  ``band_count`` must be a power
    of two: the terms are expanded on its Pauli words (see the module
    docstring).
    """

    name: str
    band_count: int
    occupied_count: int
    reality: bool
    domain: Domain
    terms: tuple = field(repr=False)

    def __post_init__(self):
        n = self.band_count
        if n < 1:
            raise ConfigError("band_count must be positive")
        if not (0 < self.occupied_count < n):
            raise ConfigError("occupied_count must satisfy 0 < occ < band_count")
        sites = n.bit_length() - 1
        if n != 2**sites:
            raise ConfigError(f"band_count {n} is not a power of two (no Pauli-word basis)")
        for coeff, mat in self.terms:
            if np.shape(mat) != (n, n):
                raise ConfigError("term matrix size does not match band_count")
            if self.domain.is_torus and any(kind == "poly" for kind, _, _ in coeff.entries):
                raise ConfigError("torus models require trigonometric coefficients")
        mats = np.reshape([mat for _, mat in self.terms], (-1, n, n))
        if np.any(np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))) > HERMITICITY_TOL):
            raise ConfigError("term matrix is not Hermitian")
        if self.reality:
            if np.any(np.abs(mats.imag) > REALITY_TOL):
                raise ConfigError("reality flag set but term matrix has imaginary entries")
            mats = mats.real
        words, basis = _pauli_basis(sites)
        # tr(P M) / n for every term M (rows) and word P (columns)
        weights = np.einsum("wij,tji->tw", basis, mats).real / n
        entries = {}  # word index -> folded entries, in order of first use
        for (coeff, _), row in zip(self.terms, weights):
            for w in np.flatnonzero(np.abs(row) > WORD_WEIGHT_TOL):
                entries.setdefault(w, []).extend((kind, nvec, amp * row[w])
                                                 for kind, nvec, amp in coeff.entries)
        specs = {w: CoefficientSpec(e) for w, e in entries.items()}
        # every word's matrix entries as floats: (re, im) pairs, or re alone
        flat = basis.view(float).reshape(len(basis), -1)[:, :: 2 if self.reality else 1]
        if n == 2:  # the four words: h0 = I and h = (X, Y, Z)
            columns = [entries.get(w, ()) for w in range(4)]
        else:  # the entries of H, each word's amplitudes times its own entry
            columns = [[(kind, nvec, amp * f[w]) for w, e in entries.items() if f[w]
                        for kind, nvec, amp in e] for f in flat.T]
        self.__dict__.update(
            _words=tuple((words[w], spec) for w, spec in specs.items()),
            _slopes=_gap_slopes(((words[w], spec) for w, spec in specs.items()), self.domain),
            _table=_Harmonics(columns),
            _basis=flat[:4] if n == 2 else None,
            _field=None if n != 2 else TwoBandField(
                [specs.get(w, CoefficientSpec([])) for w in (1, 2, 3)], domain=self.domain),
        )

    # -- evaluation ------------------------------------------------------

    def hamiltonian(self, k):
        """Evaluate H(k) from one table evaluation. Accepts shape (3,) or (..., 3)."""
        k = as_k_array(k)
        self.domain.check(k)
        return self._matrices(self._table(k), k.shape[:-1])

    def hamiltonian_gradient(self, k):
        """dH/dk_i at k, shape (..., 3, band_count, band_count), from the
        table's gradient."""
        k = as_k_array(k)
        self.domain.check(k)
        return self._matrices(np.moveaxis(self._table.gradient(k), 0, -1), k.shape[:-1] + (3,))

    def _matrices(self, columns, lead):
        """Matrices from table columns: H's entries, or the four words of a
        two-band model times their matrices, which is exact (two words
        meet at an entry, each 0, +-1 or +-i)."""
        rows = np.ascontiguousarray(np.moveaxis(columns, 0, -1)).reshape(-1, len(columns))
        if self.band_count == 2:
            rows = rows @ self._basis
        if not self.reality:
            rows = rows.view(complex)
        return rows.reshape(lead + (self.band_count, self.band_count))

    def spectrum(self, k):
        """Ascending eigenvalues of H(k); shape (..., band_count).

        Two-band models return h0 -/+ |h| from their I, X, Y and Z words."""
        if self._field is None:
            return np.linalg.eigvalsh(self.hamiltonian(k))
        return self._two_band(k)[0]

    def direct_gap(self, k, gap_index=None):
        """Gap E_{g+1} - E_g between bands g and g+1 (1-based, default occ)."""
        return self.gap_of(self.spectrum(k), gap_index)

    def gap_drift(self, reach):
        """A bound on how far any gap of H moves between two points that
        differ by at most ``reach[i]`` along each axis i, both in the domain
        and on a segment that stays in it.

        With the slope constants and anticommuting families of
        ``_gap_slopes``: each family F's words square to the sum of their
        squared coefficients, so ||H(k + d) - H(k)|| <= R = sum_F (sum_{w in
        F} (L_w . reach)^2)^(1/2); the identity word moves every band alike.
        By Weyl's inequality no gap moves by more than 2 R.  The bound adds
        GAP_ROUNDING of the scale of H for the rounding of two computed
        spectra.  A non-finite reach gives inf or NaN, which certifies
        nothing.
        """
        _, slopes, families, scale = self._slopes
        with np.errstate(invalid="ignore"):  # 0 * inf: a flat word, an infinite reach
            moves = slopes @ np.asarray(reach, dtype=float)
        drift = sum(math.sqrt(float(moves[f] @ moves[f])) for f in families)
        return 2.0 * drift + GAP_ROUNDING * scale

    def gap_of(self, spectrum, gap_index=None):
        """Gap g (1-based, default occ) of an ascending ``spectrum`` array."""
        g = self.occupied_count if gap_index is None else int(gap_index)
        if not (1 <= g < self.band_count):
            raise ValueError(f"gap_index must lie in [1, {self.band_count - 1}]")
        return spectrum[..., g] - spectrum[..., g - 1]

    def eigenframes(self, k, occupied=None):
        """Eigenvalues and occupied eigenvector frames at k.

        Returns ``(energies, frames)`` with frames of shape
        ``(..., band_count, occ)``.  Real models yield real frames.
        """
        occ = self.occupied_count if occupied is None else int(occupied)
        if self._field is None:
            energies, vectors = np.linalg.eigh(self.hamiltonian(k))
        else:
            energies, h, norm = self._two_band(k)
            vectors = _two_band_vectors(h, norm, self.reality)
        return energies, vectors[..., :, :occ]

    # -- two-band structure ----------------------------------------------

    @property
    def two_band_field(self):
        """The R^3-valued field h with H = h0 + h . sigma, or None if not 2-band."""
        return self._field

    def _two_band(self, k):
        """Energies h0 -/+ |h|, h (components first) and |h| at k, from one
        table evaluation."""
        k = as_k_array(k)
        self.domain.check(k)
        pauli = self._table(k)
        h0, h = pauli[0], pauli[1:]
        norm = np.linalg.norm(h, axis=0)
        return np.stack([h0 - norm, h0 + norm], axis=-1), h, norm

    # -- serialization -----------------------------------------------------

    def to_config(self):
        return {
            "schema_version": 1,
            "name": self.name,
            "band_count": self.band_count,
            "occupied_count": self.occupied_count,
            "reality": self.reality,
            "domain": self.domain.to_dict(),
            "terms": [{"pauli": word, "coeff": spec.to_dict()} for word, spec in self._words],
        }


def _two_band_vectors(h, norm, real):
    """Unit eigenvectors of h . sigma (h components first) as columns
    (lower, upper); real for real models.

    The lower vector is (hx - i hy, -(hz + |h|)) where hz >= 0 and
    (hz - |h|, hx + i hy) where hz < 0, so neither entry cancels; the upper
    one is its orthogonal complement (-conj(b), conj(a)).  At an exact node
    the columns are those of the identity, as LAPACK returns for H = 0.
    """
    hx, hy, hz = h
    s = np.abs(hz) + norm
    off = hx if real else hx - 1j * hy
    up = hz >= 0
    scale = np.sqrt(hx * hx + hy * hy + s * s)
    node = scale == 0
    scale = np.where(node, 1.0, scale)
    a = np.where(node, 1.0, np.where(up, off, -s) / scale)
    b = np.where(node, 0.0, np.where(up, -s, np.conj(off)) / scale)
    lower = np.stack([a, b], axis=-1)
    upper = np.stack([-np.conj(b), np.conj(a)], axis=-1)
    return np.stack([lower, upper], axis=-1)


def fix_gauge(frames):
    """Frames with a deterministic per-column gauge: the largest-magnitude
    entry of each column made real positive."""
    idx = np.argmax(np.abs(frames), axis=-2)
    lead = np.take_along_axis(frames, idx[..., None, :], axis=-2)[..., 0, :]
    phase = lead / np.where(np.abs(lead) < 1e-300, 1.0, np.abs(lead))
    return frames * np.conj(phase)[..., None, :]


class TwoBandField:
    """The vector field h of a two-band model H = h0 + h . sigma.

    ``components`` are three CoefficientSpec scalars; for reality-flagged
    models the middle component is identically zero.  They are tabulated
    once as the three columns of one ``_Harmonics`` table, so h(k) is one
    table evaluation.  A model's own field is built from its X, Y and Z
    words.
    """

    def __init__(self, components, domain=TORUS):
        if len(components) != 3:
            raise ConfigError("two-band field needs 3 components")
        self.components = tuple(components)
        self.domain = domain
        self._table = _Harmonics([c.entries for c in self.components])

    def __call__(self, k):
        return np.moveaxis(self._table(as_k_array(k)), 0, -1)


def model_from_field(name, field, occupied_count=1, reality=None, domain=None):
    """Build the two-band model H = h . sigma from a TwoBandField."""
    domain = domain or field.domain
    if reality is None:
        reality = not field.components[1].entries
    terms = tuple((c, pauli_word(p)) for c, p in zip(field.components, "XYZ") if c.entries)
    return BlochModel(name, 2, occupied_count, reality, domain, terms)


# -- built-in models -------------------------------------------------------


def _axis_entries(kind, amp):
    """``kind`` harmonics along kx, ky and kz, each with amplitude ``amp``."""
    return [(kind, tuple(axis), amp) for axis in np.eye(3, dtype=int)]


def _cos_sum(m):
    """cos kx + cos ky + cos kz - m."""
    return CoefficientSpec(_axis_entries("cos", 1.0) + [("cos", (0, 0, 0), -float(m))])


def _weyl_lattice(m):
    if not 1.0 < abs(m) < 3.0:
        raise ConfigError("weyl-lattice: need 1 < |m| < 3 for a two-point nodal set")
    hx, hy, _ = (CoefficientSpec([entry]) for entry in _axis_entries("sin", 1.0))
    field = TwoBandField([hx, hy, _cos_sum(m)])
    return model_from_field(f"weyl-lattice(m={m:g})", field, reality=False)


def _nodal_loop_real(m):
    if not 1.0 < m < 3.0:
        raise ConfigError("nodal-loop-real: need 1 < m < 3 for a single nodal loop")
    h3 = CoefficientSpec([("sin", (0, 0, 1), 1.0)])
    field = TwoBandField([_cos_sum(m), CoefficientSpec([]), h3])
    return model_from_field(f"nodal-loop-real(m={m:g})", field, reality=True)


FOUR_BAND_WORDS = ("IX", "YY", "IZ", "ZZ")


def _four_band(name, kind, amp, mass, domain):
    """The real four-band model: ``kind`` harmonics of amplitude ``amp`` along
    kx, ky and kz on IX, YY and IZ, and the constant ``mass`` entry on ZZ."""
    entries = [[entry] for entry in _axis_entries(kind, amp)] + [[mass]]
    terms = tuple((CoefficientSpec(e), pauli_word(w)) for e, w in zip(entries, FOUR_BAND_WORDS))
    return BlochModel(name, 4, 2, True, domain, terms)


def _four_band_linked(m, extent=3.0):
    if not 0.0 < abs(m) < 2.5:
        raise ConfigError("four-band-linked: need 0 < |m| < 2.5 inside the default box")
    return _four_band(f"four-band-linked(m={m:g})", "poly", 1.0,
                      ("poly", (0, 0, 0), float(m)), Domain("box", float(extent)))


FOUR_BAND_LATTICE_HOPPING = 2.0


def _four_band_linked_lattice(m):
    # Hopping amplitude 2 keeps the m=1 nodal set away from the critical
    # level of sin^2(ky)+sin^2(kz), where the loops would merge into a
    # singular network.
    t = FOUR_BAND_LATTICE_HOPPING
    if not 0.0 < abs(m) < 2.0 * t / 2.0:
        raise ConfigError("four-band-linked-lattice: need 0 < |m| < 2")
    return _four_band(f"four-band-linked-lattice(m={m:g})", "sin", t,
                      ("cos", (0, 0, 0), float(m)), TORUS)


BUILTINS = {
    "weyl-lattice": _weyl_lattice,
    "nodal-loop-real": _nodal_loop_real,
    "four-band-linked": _four_band_linked,
    "four-band-linked-lattice": _four_band_linked_lattice,
}


def builtin(name, **params):
    """Construct a built-in model by name.

    Known names: ``weyl-lattice(m)``, ``nodal-loop-real(m)``,
    ``four-band-linked(m[, extent])``, ``four-band-linked-lattice(m)``.
    """
    if name not in BUILTINS:
        raise ConfigError(f"unknown builtin {name!r}; known: {', '.join(sorted(BUILTINS))}")
    try:
        return BUILTINS[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for builtin {name!r}: {exc}") from exc


# -- config files -----------------------------------------------------------


def model_from_config(data):
    """Build a model from a parsed config dictionary, the form ``to_config``
    writes.

    Keys: ``schema_version`` (1, the default), ``name`` (optional),
    ``band_count``, ``occupied_count``, ``reality`` (true or false),
    ``domain`` (``{"type": "torus"}`` or ``{"type": "box", "extent": L}``)
    and ``terms``, a list of ``{"pauli": word, "coeff": [{"kind",
    "harmonic", "amplitude"}, ...]}``: a Pauli word such as ``"ZY"`` with
    the ``CoefficientSpec`` entries that multiply it.  A missing or
    malformed key is a ConfigError.
    """
    try:
        version = data.get("schema_version", 1)
        if version != 1:
            raise ConfigError(f"unsupported schema_version {version}")
        dom = data["domain"]
        domain = TORUS if dom["type"] == "torus" else Domain("box", float(dom["extent"]))
        terms = tuple((CoefficientSpec.from_dict(term["coeff"]), pauli_word(term["pauli"]))
                      for term in data["terms"])
        reality = data["reality"]
        if not isinstance(reality, bool):
            raise ConfigError(f"reality must be true or false, got {reality!r}")
        return BlochModel(str(data.get("name", "config-model")),
                          _integer(data["band_count"], "band_count"),
                          _integer(data["occupied_count"], "occupied_count"),
                          reality, domain, terms)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"malformed model config: {exc}") from exc


def read_json_file(path, what):
    """Parsed contents of a JSON file; ConfigError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_model_config(path):
    """Load a model from a JSON config file."""
    return model_from_config(read_json_file(path, "model config"))


def save_model_config(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_config(), fh, indent=2, sort_keys=True)
        fh.write("\n")
