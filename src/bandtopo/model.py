"""Bloch Hamiltonians on the 3-torus and on continuum boxes.

Models are immutable after construction and their evaluators are pure.
Evaluation is vectorized: every entry point accepts a single k-point of
shape ``(3,)`` or a batch of shape ``(..., 3)`` and returns arrays with
matching leading dimensions.

A model on n = 2^s bands holds one representation.  At construction its
terms are expanded once on the 4^s Pauli words, which span every n x n
matrix, so the expansion is exact: each word P carries the coefficients of
the terms M with tr(P M) / n != 0, that weight folded into their
amplitudes.  H(k) sums the words and ``to_config`` writes them.  A
two-band model H = h0 + h . sigma takes its I, X, Y and Z words as h0 and
h, and its spectrum h0 -/+ |h| and eigenvectors come in closed form.
Models with more bands assemble H(k) and call the LAPACK eigensolver.
``hamiltonian_gradient`` sums the same words with the analytic gradients of
their coefficients, so dH/dk needs no finite differences.
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
        if self.is_torus:
            return
        if not np.all(self.contains(k)):
            raise DomainError(
                f"k-point outside continuum box [-{self.extent}, {self.extent}]^3"
            )

    def to_dict(self):
        if self.is_torus:
            return {"type": "torus"}
        return {"type": "box", "extent": self.extent}


TORUS = Domain("torus")


def as_k_array(k):
    """Coerce a sequence or array to a float array of shape (..., 3)."""
    arr = np.asarray(k, dtype=float)
    if arr.shape[-1] != 3:
        raise ValueError(f"expected 3 momentum components, got shape {arr.shape}")
    return arr


class CoefficientSpec:
    """Scalar function of k built from cos/sin harmonics and monomials.

    Each entry is ``(kind, nvec, amplitude)`` with kind in {"cos", "sin",
    "poly"}: ``cos`` and ``sin`` use the integer harmonic vector n in
    ``a*cos(n.k)`` / ``a*sin(n.k)``; ``poly`` contributes the monomial
    ``a * kx^n0 * ky^n1 * kz^n2`` (continuum models only).  Amplitudes must
    be finite, n whole numbers and monomial exponents non-negative.
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

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape[:-1])
        for kind, nvec, amp in self.entries:
            n = np.array(nvec, dtype=float)
            if kind == "cos":
                out = out + amp * np.cos(k @ n)
            elif kind == "sin":
                out = out + amp * np.sin(k @ n)
            else:
                term = np.full(k.shape[:-1], amp)
                for axis, p in enumerate(nvec):
                    if p:
                        term = term * k[..., axis] ** p
                out = out + term
        return out

    def gradient(self, k):
        """The gradient of the scalar in k; shape (..., 3)."""
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape)
        for kind, nvec, amp in self.entries:
            n = np.array(nvec, dtype=float)
            if kind == "cos":
                out = out - (amp * np.sin(k @ n))[..., None] * n
            elif kind == "sin":
                out = out + (amp * np.cos(k @ n))[..., None] * n
            else:
                for axis, p in enumerate(nvec):
                    if not p:
                        continue
                    term = np.full(k.shape[:-1], amp * p)
                    for other, q in enumerate(nvec):
                        power = q - (other == axis)
                        if power:
                            term = term * k[..., other] ** power
                    out[..., axis] += term
        return out

    @property
    def is_trigonometric(self):
        return all(kind != "poly" for kind, _, _ in self.entries)

    def to_dict(self):
        return [
            {"kind": kind, "harmonic": list(nvec), "amplitude": amp}
            for kind, nvec, amp in self.entries
        ]

    @classmethod
    def from_dict(cls, data):
        entries = []
        for item in data:
            entries.append((item["kind"], item["harmonic"], item["amplitude"]))
        return cls(entries)


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
            if self.domain.is_torus and not coeff.is_trigonometric:
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
                entries.setdefault(w, []).extend(
                    (kind, nvec, amp * row[w]) for kind, nvec, amp in coeff.entries
                )
        expansion = tuple(
            (words[w], CoefficientSpec(e), basis[w].real if self.reality else basis[w])
            for w, e in entries.items()
        )
        object.__setattr__(self, "_words", expansion)
        pauli = None
        if n == 2:
            by_word = {word: coeff for word, coeff, _ in expansion}
            h0, hx, hy, hz = (by_word.get(p, CoefficientSpec([])) for p in PAULI)
            pauli = (h0, TwoBandField([hx, hy, hz], domain=self.domain))
        object.__setattr__(self, "_pauli", pauli)

    # -- evaluation ------------------------------------------------------

    def hamiltonian(self, k):
        """Evaluate H(k), the sum of the Pauli words. Accepts shape (3,) or (..., 3)."""
        k = as_k_array(k)
        self.domain.check(k)
        dtype = float if self.reality else complex
        shape = k.shape[:-1] + (self.band_count, self.band_count)
        out = np.zeros(shape, dtype=dtype)
        for _, coeff, mat in self._words:
            out = out + coeff(k)[..., None, None] * mat
        return out

    def hamiltonian_gradient(self, k):
        """dH/dk_i at k, shape (..., 3, band_count, band_count): the Pauli
        words weighted by the gradients of their coefficients."""
        k = as_k_array(k)
        self.domain.check(k)
        dtype = float if self.reality else complex
        shape = k.shape[:-1] + (3, self.band_count, self.band_count)
        out = np.zeros(shape, dtype=dtype)
        for _, coeff, mat in self._words:
            out = out + coeff.gradient(k)[..., None, None] * mat
        return out

    def spectrum(self, k):
        """Ascending eigenvalues of H(k); shape (..., band_count).

        Two-band models return h0 -/+ |h| from their I, X, Y and Z words."""
        if self._pauli is None:
            return np.linalg.eigvalsh(self.hamiltonian(k))
        return self._two_band(k)[0]

    def direct_gap(self, k, gap_index=None):
        """Gap E_{g+1} - E_g between bands g and g+1 (1-based, default occ)."""
        return self.gap_of(self.spectrum(k), gap_index)

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
        if self._pauli is None:
            energies, vectors = np.linalg.eigh(self.hamiltonian(k))
        else:
            energies, h, norm = self._two_band(k)
            vectors = _two_band_vectors(h, norm, self.reality)
        return energies, vectors[..., :, :occ]

    # -- two-band structure ----------------------------------------------

    @property
    def two_band_field(self):
        """The R^3-valued field h with H = h0 + h . sigma, or None if not 2-band."""
        return None if self._pauli is None else self._pauli[1]

    def _two_band(self, k):
        """Energies h0 -/+ |h|, h and |h| (as ``TwoBandField.norm``) at k."""
        k = as_k_array(k)
        self.domain.check(k)
        identity, fld = self._pauli
        h = fld(k)
        norm = np.linalg.norm(h, axis=-1)
        h0 = identity(k)
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
            "terms": [
                {"pauli": word, "coeff": coeff.to_dict()} for word, coeff, _ in self._words
            ],
        }


def _two_band_vectors(h, norm, real):
    """Unit eigenvectors of h . sigma as columns (lower, upper); real for
    real models.

    The lower vector is (hx - i hy, -(hz + |h|)) where hz >= 0 and
    (hz - |h|, hx + i hy) where hz < 0, so neither entry cancels; the upper
    one is its orthogonal complement (-conj(b), conj(a)).  At an exact node
    the columns are those of the identity, as LAPACK returns for H = 0.
    """
    hx, hy, hz = np.moveaxis(h, -1, 0)
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
    """The vector field h of a two-band model H = h . sigma.

    ``components`` are three CoefficientSpec scalars; for reality-flagged
    models the middle component is identically zero.
    """

    def __init__(self, components, domain=TORUS):
        if len(components) != 3:
            raise ConfigError("two-band field needs 3 components")
        self.components = tuple(components)
        self.domain = domain

    def __call__(self, k):
        k = as_k_array(k)
        return np.stack([c(k) for c in self.components], axis=-1)

    def norm(self, k):
        return np.linalg.norm(self(k), axis=-1)


def model_from_field(name, field, occupied_count=1, reality=None, domain=None):
    """Build the two-band model H = h . sigma from a TwoBandField."""
    domain = domain or field.domain
    if reality is None:
        reality = not field.components[1].entries
    terms = []
    for comp, letter in zip(field.components, "XYZ"):
        if comp.entries:
            terms.append((comp, pauli_word(letter)))
    return BlochModel(
        name=name,
        band_count=2,
        occupied_count=occupied_count,
        reality=reality,
        domain=domain,
        terms=tuple(terms),
    )


# -- built-in models -------------------------------------------------------


def _weyl_lattice(m):
    if not 1.0 < abs(m) < 3.0:
        raise ConfigError("weyl-lattice: need 1 < |m| < 3 for a two-point nodal set")
    hx = CoefficientSpec([("sin", (1, 0, 0), 1.0)])
    hy = CoefficientSpec([("sin", (0, 1, 0), 1.0)])
    hz = CoefficientSpec(
        [
            ("cos", (1, 0, 0), 1.0),
            ("cos", (0, 1, 0), 1.0),
            ("cos", (0, 0, 1), 1.0),
            ("cos", (0, 0, 0), -float(m)),
        ]
    )
    field = TwoBandField([hx, hy, hz])
    return model_from_field(f"weyl-lattice(m={m:g})", field, reality=False)


def _nodal_loop_real(m):
    if not 1.0 < m < 3.0:
        raise ConfigError("nodal-loop-real: need 1 < m < 3 for a single nodal loop")
    h1 = CoefficientSpec(
        [
            ("cos", (1, 0, 0), 1.0),
            ("cos", (0, 1, 0), 1.0),
            ("cos", (0, 0, 1), 1.0),
            ("cos", (0, 0, 0), -float(m)),
        ]
    )
    h2 = CoefficientSpec([])
    h3 = CoefficientSpec([("sin", (0, 0, 1), 1.0)])
    field = TwoBandField([h1, h2, h3])
    return model_from_field(f"nodal-loop-real(m={m:g})", field, reality=True)


FOUR_BAND_WORDS = ("IX", "YY", "IZ", "ZZ")


def _four_band_linked(m, extent=3.0):
    if not 0.0 < abs(m) < 2.5:
        raise ConfigError("four-band-linked: need 0 < |m| < 2.5 inside the default box")
    cx = CoefficientSpec([("poly", (1, 0, 0), 1.0)])
    cy = CoefficientSpec([("poly", (0, 1, 0), 1.0)])
    cz = CoefficientSpec([("poly", (0, 0, 1), 1.0)])
    cm = CoefficientSpec([("poly", (0, 0, 0), float(m))])
    terms = tuple(
        (coeff, pauli_word(word))
        for coeff, word in zip((cx, cy, cz, cm), FOUR_BAND_WORDS)
    )
    return BlochModel(
        name=f"four-band-linked(m={m:g})",
        band_count=4,
        occupied_count=2,
        reality=True,
        domain=Domain("box", float(extent)),
        terms=terms,
    )


FOUR_BAND_LATTICE_HOPPING = 2.0


def _four_band_linked_lattice(m):
    # Hopping amplitude 2 keeps the m=1 nodal set away from the critical
    # level of sin^2(ky)+sin^2(kz), where the loops would merge into a
    # singular network.
    t = FOUR_BAND_LATTICE_HOPPING
    if not 0.0 < abs(m) < 2.0 * t / 2.0:
        raise ConfigError("four-band-linked-lattice: need 0 < |m| < 2")
    cx = CoefficientSpec([("sin", (1, 0, 0), t)])
    cy = CoefficientSpec([("sin", (0, 1, 0), t)])
    cz = CoefficientSpec([("sin", (0, 0, 1), t)])
    cm = CoefficientSpec([("cos", (0, 0, 0), float(m))])
    terms = tuple(
        (coeff, pauli_word(word))
        for coeff, word in zip((cx, cy, cz, cm), FOUR_BAND_WORDS)
    )
    return BlochModel(
        name=f"four-band-linked-lattice(m={m:g})",
        band_count=4,
        occupied_count=2,
        reality=True,
        domain=TORUS,
        terms=terms,
    )


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
        raise ConfigError(
            f"unknown builtin {name!r}; known: {', '.join(sorted(BUILTINS))}"
        )
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
        domain = (
            TORUS if dom["type"] == "torus" else Domain("box", float(dom["extent"]))
        )
        terms = []
        for term in data["terms"]:
            coeff = CoefficientSpec.from_dict(term["coeff"])
            terms.append((coeff, pauli_word(term["pauli"])))
        reality = data["reality"]
        if not isinstance(reality, bool):
            raise ConfigError(f"reality must be true or false, got {reality!r}")
        return BlochModel(
            name=str(data.get("name", "config-model")),
            band_count=_integer(data["band_count"], "band_count"),
            occupied_count=_integer(data["occupied_count"], "occupied_count"),
            reality=reality,
            domain=domain,
            terms=tuple(terms),
        )
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
