"""Bloch Hamiltonians on the 3-torus and on continuum boxes.

Models are immutable after construction and their evaluators are pure, so
they are safe to share across threads.  Evaluation is vectorized: every
entry point accepts a single k-point of shape ``(3,)`` or a batch of shape
``(..., 3)`` and returns arrays with matching leading dimensions.

Two-band models H = h0 + h . sigma are not evaluated as matrices: each
projects its terms on the Paulis once, at construction, and its spectrum
h0 -/+ |h| and eigenvectors come in closed form from that projection.
Models with more bands assemble H(k) and call the LAPACK eigensolver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DomainError

TWO_PI = 2.0 * math.pi

HERMITICITY_TOL = 1e-12
REALITY_TOL = 1e-12

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
            if self.extent is None or self.extent <= 0:
                raise ConfigError("box domain requires a positive extent")

    @property
    def is_torus(self):
        return self.kind == "torus"

    def contains(self, k, margin=0.0):
        if self.is_torus:
            return np.ones(np.shape(k)[:-1], dtype=bool) if np.ndim(k) > 1 else True
        inside = np.all(np.abs(np.asarray(k, dtype=float)) <= self.extent - margin + 1e-12, axis=-1)
        return inside

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


@dataclass(frozen=True)
class KPoint:
    """A momentum-space point with its domain convention.

    Torus points are reduced to [-pi, pi)^3 before hashing and comparison.
    """

    coords: tuple
    domain: Domain = TORUS

    def __post_init__(self):
        c = tuple(float(x) for x in self.coords)
        if len(c) != 3:
            raise ValueError("KPoint needs exactly 3 coordinates")
        object.__setattr__(self, "coords", c)

    def reduced(self):
        if self.domain.is_torus:
            return np.array(reduce_torus(self.coords))
        return np.array(self.coords, dtype=float)

    def _key(self):
        return tuple(np.round(self.reduced(), 12))

    def __eq__(self, other):
        if not isinstance(other, KPoint):
            return NotImplemented
        return self.domain.kind == other.domain.kind and self._key() == other._key()

    def __hash__(self):
        return hash((self.domain.kind, self._key()))

    def __array__(self, dtype=None, copy=None):
        arr = np.array(self.coords, dtype=dtype or float)
        return arr


def as_k_array(k):
    """Coerce a KPoint / sequence / array to a float array of shape (..., 3)."""
    if isinstance(k, KPoint):
        k = k.coords
    arr = np.asarray(k, dtype=float)
    if arr.shape[-1] != 3:
        raise ValueError(f"expected 3 momentum components, got shape {arr.shape}")
    return arr


class CoefficientSpec:
    """Scalar function of k built from cos/sin harmonics and monomials.

    Each entry is ``(kind, nvec, amplitude)`` with kind in {"cos", "sin",
    "poly"}: ``cos`` and ``sin`` use the integer harmonic vector n in
    ``a*cos(n.k)`` / ``a*sin(n.k)``; ``poly`` contributes the monomial
    ``a * kx^n0 * ky^n1 * kz^n2`` (continuum models only).
    """

    def __init__(self, entries):
        cleaned = []
        for kind, nvec, amp in entries:
            if kind not in ("cos", "sin", "poly"):
                raise ConfigError(f"unknown coefficient kind {kind!r}")
            nvec = tuple(int(v) for v in nvec)
            if len(nvec) != 3:
                raise ConfigError("harmonic/exponent vector must have 3 entries")
            cleaned.append((kind, nvec, float(amp)))
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
    are real symmetric in the chosen basis.
    """

    name: str
    band_count: int
    occupied_count: int
    reality: bool
    domain: Domain
    terms: tuple = field(repr=False)

    def __post_init__(self):
        if self.band_count < 1:
            raise ConfigError("band_count must be positive")
        if not (0 < self.occupied_count < self.band_count):
            raise ConfigError("occupied_count must satisfy 0 < occ < band_count")
        for coeff, mat in self.terms:
            if mat.shape != (self.band_count, self.band_count):
                raise ConfigError("term matrix size does not match band_count")
            if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
                raise ConfigError("term matrix is not Hermitian")
            if self.reality and np.max(np.abs(mat.imag)) > REALITY_TOL:
                raise ConfigError("reality flag set but term matrix has imaginary entries")
            if not self.domain.is_torus:
                continue
            if not coeff.is_trigonometric:
                raise ConfigError("torus models require trigonometric coefficients")
        pauli = _pauli_projection(self) if self.band_count == 2 else None
        object.__setattr__(self, "_pauli", pauli)

    # -- evaluation ------------------------------------------------------

    def hamiltonian(self, k):
        """Evaluate H(k). Accepts shape (3,) or (..., 3)."""
        k = as_k_array(k)
        self.domain.check(k)
        dtype = float if self.reality else complex
        shape = k.shape[:-1] + (self.band_count, self.band_count)
        out = np.zeros(shape, dtype=dtype)
        for coeff, mat in self.terms:
            m = mat.real if self.reality else mat
            out = out + coeff(k)[..., None, None] * m
        return out

    def spectrum(self, k):
        """Ascending eigenvalues of H(k); shape (..., band_count).

        Two-band models return h0 -/+ |h| from their Pauli projection."""
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
        """Energies h0 -/+ |h|, h and |h| (as ``TwoBandField.norm``) at k,
        from the Pauli projection."""
        k = as_k_array(k)
        self.domain.check(k)
        identity, fld = self._pauli
        h = fld(k)
        norm = np.linalg.norm(h, axis=-1)
        h0 = identity(k)
        return np.stack([h0 - norm, h0 + norm], axis=-1), h, norm

    # -- serialization -----------------------------------------------------

    def to_config(self):
        words = _term_words(self)
        return {
            "schema_version": 1,
            "name": self.name,
            "band_count": self.band_count,
            "occupied_count": self.occupied_count,
            "reality": self.reality,
            "domain": self.domain.to_dict(),
            "terms": words,
        }


def _pauli_projection(model):
    """(h0, h): the I and (X, Y, Z) coefficient specs of a two-band model,
    with each term's Pauli weights folded into its amplitudes."""
    comps = []
    for letter in "IXYZ":
        entries = []
        for coeff, mat in model.terms:
            m = mat.real if model.reality else mat
            weight = np.trace(m @ PAULI[letter]).real / 2.0
            if abs(weight) > 1e-14:
                entries.extend(
                    (kind, nvec, amp * weight) for kind, nvec, amp in coeff.entries
                )
        comps.append(CoefficientSpec(entries))
    return comps[0], TwoBandField(comps[1:], domain=model.domain)


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


def _term_words(model):
    """Express model terms as Pauli words when the size is a power of two;
    a scaled word's weight is folded into the coefficient amplitudes."""
    n = model.band_count
    sites = int(round(math.log2(n)))
    if 2**sites != n:
        raise ConfigError("config serialization needs a power-of-two band count")
    words = []
    for coeff, mat in model.terms:
        word, weight = _match_pauli_word(mat, sites)
        scaled = CoefficientSpec([(kind, nvec, amp * weight) for kind, nvec, amp in coeff.entries])
        words.append({"pauli": word, "coeff": scaled.to_dict()})
    return words


def _match_pauli_word(mat, sites):
    """The Pauli word P and real weight w with mat = w * P."""
    letters = "IXYZ"
    for idx in range(4**sites):
        word = ""
        j = idx
        for _ in range(sites):
            word = letters[j % 4] + word
            j //= 4
        cand = pauli_word(word)
        weight = float(np.trace(mat @ cand.conj().T).real / cand.shape[0])
        if abs(weight) > 1e-12 and np.max(np.abs(mat - weight * cand)) < 1e-12:
            return word, weight
    raise ConfigError("term matrix is not proportional to a single Pauli word")


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
    """Build a model from a parsed config dictionary (see README schema)."""
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
        return BlochModel(
            name=str(data.get("name", "config-model")),
            band_count=int(data["band_count"]),
            occupied_count=int(data["occupied_count"]),
            reality=bool(data["reality"]),
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
