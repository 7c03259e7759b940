"""Independent verdict checker of the posmap benchmark.

Each check compares a verdict with the answer known from how the input was
built, and re-checks the evidence that came with it from scratch with numpy:

* split certificates: residual ||H1 + H2 - H||_F, H1 PSD, PT(H2) PSD;
* PPT witness states: trace one, PSD, PT-PSD and Tr(H rho) < 0;
* positivity witnesses: the quadratic form sum conj(l_i) l_j <eta, H_ij eta>
  must be negative;
* canonical scalars: (|y|, |z|, u, |t|) must match the construction.

A check returns an :class:`Outcome`; it never raises on a bad report, so a
failure is counted and the run goes on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from posmap import ChoiMatrix, validate_certificate
from posmap.exceptions import PosmapError

OK = "ok"
UNDECIDED = "undecided"
WRONG = "wrong_verdict"
INVALID = "invalid_evidence"
ERROR = "error"

#: Outcomes that count as failed operations.
FAILED = (WRONG, INVALID, ERROR)

#: Split residual and cone tolerance (posmap's documented FEAS_TOL).
SPLIT_TOL = 1e-7

#: Trace, PSD and Hermiticity tolerance for witness states.
STATE_TOL = 1e-8

#: Agreement of canonical scalars with the construction (as criterion C10).
CANON_TOL = 1e-8


@dataclass(frozen=True)
class Outcome:
    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status in FAILED


def partial_transpose(H: np.ndarray, d: int) -> np.ndarray:
    """Transpose of the outer 2x2 index: entry ((i,a),(j,b)) <- ((j,a),(i,b))."""
    return H.reshape(2, d, 2, d).transpose(2, 1, 0, 3).reshape(2 * d, 2 * d)


def matrix_from_wire(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(rows, cols)


def complex_vector(pairs) -> np.ndarray:
    data = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return data[:, 0] + 1j * data[:, 1]


def min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix; NaN if not Hermitian."""
    if np.linalg.norm(M - M.conj().T) > STATE_TOL * max(1.0, np.linalg.norm(M)):
        return float("nan")
    return float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])


def split_problems(H: np.ndarray, d: int, H1: np.ndarray, H2: np.ndarray) -> list[str]:
    problems = []
    res = float(np.linalg.norm(H1 + H2 - H))
    if not res <= SPLIT_TOL:
        problems.append(f"split residual {res:.3e}")
    m1 = min_eig(H1)
    if not m1 >= -SPLIT_TOL:
        problems.append(f"H1 min eigenvalue {m1:.3e}")
    m2 = min_eig(partial_transpose(H2, d))
    if not m2 >= -SPLIT_TOL:
        problems.append(f"PT(H2) min eigenvalue {m2:.3e}")
    return problems


def ppt_witness_problems(H: np.ndarray, d: int, rho: np.ndarray) -> list[str]:
    problems = []
    tr = float(np.trace(rho).real)
    if not abs(tr - 1.0) <= STATE_TOL:
        problems.append(f"witness trace {tr!r}")
    m = min_eig(rho)
    if not m >= -STATE_TOL:
        problems.append(f"witness min eigenvalue {m:.3e}")
    m_pt = min_eig(partial_transpose(rho, d))
    if not m_pt >= -STATE_TOL:
        problems.append(f"witness PT min eigenvalue {m_pt:.3e}")
    value = float(np.trace(H @ rho).real)
    if not value < 0.0:
        problems.append(f"Tr(H rho) = {value:.3e} is not negative")
    return problems


def positivity_witness_value(H: np.ndarray, eta, lam) -> float:
    """sum_ij conj(l_i) l_j <eta, H_ij eta>, the map's value at lam (x) eta."""
    v = np.kron(np.asarray(lam, dtype=np.complex128), np.asarray(eta, dtype=np.complex128))
    return float(np.vdot(v, H @ v).real)


@dataclass(frozen=True)
class _Certificate:
    H1: np.ndarray
    H2: np.ndarray


def _decomposable_flag_problems(H, d, report, flag) -> list[str]:
    """Re-check the evidence behind the decomposability flag."""
    if flag == "yes":
        cert = report["decomposition"]["certificate"]
        H1, H2 = matrix_from_wire(cert["H1"]), matrix_from_wire(cert["H2"])
        problems = split_problems(H, d, H1, H2)
        try:
            validate_certificate(ChoiMatrix.from_array(H), _Certificate(H1, H2))
        except PosmapError as exc:
            problems.append(f"validate_certificate: {exc}")
        return problems
    if flag == "no-witness":
        return ppt_witness_problems(H, d, matrix_from_wire(report["witness"]["rho"]))
    return []


def _outcome(wrong: list[str], invalid: list[str], undecided: list[str]) -> Outcome:
    if wrong:
        return Outcome(WRONG, "; ".join(wrong + invalid))
    if invalid:
        return Outcome(INVALID, "; ".join(invalid))
    if undecided:
        return Outcome(UNDECIDED, "; ".join(undecided))
    return Outcome(OK)


def _guard(check):
    """Turn a malformed report into an INVALID outcome instead of an exception."""
    @functools.wraps(check)
    def guarded(*args):
        try:
            return check(*args)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return Outcome(INVALID, f"malformed report: {type(exc).__name__}: {exc}")
    return guarded


@_guard
def check_tang(H, d, report) -> Outcome:
    """Positive, neither CP nor coCP, and nondecomposable with a PPT witness."""
    flags = report["flags"]
    wrong, undecided = [], []
    status = flags["positive"]["status"]
    if status == "inconclusive":
        undecided.append("positivity inconclusive")
    elif status != "certified":
        wrong.append(f"positive {status}")
    if flags["cp"] is not False or flags["ccp"] is not False:
        wrong.append(f"cp={flags['cp']} ccp={flags['ccp']}")
    dec = flags["decomposable"]
    if dec == "unknown":
        undecided.append("decomposable unknown")
    elif dec != "no-witness":
        wrong.append(f"decomposable {dec}")
    invalid = [] if wrong else _decomposable_flag_problems(H, d, report, dec)
    return _outcome(wrong, invalid, undecided)


@_guard
def check_decomposable(H, d, report) -> Outcome:
    """No positivity violation, and a split certificate that re-checks."""
    flags = report["flags"]
    wrong, undecided = [], []
    status = flags["positive"]["status"]
    if status == "violation_found":
        wrong.append("positivity violation reported for a decomposable map")
    elif status == "inconclusive":
        undecided.append("positivity inconclusive")
    dec = flags["decomposable"]
    if dec == "unknown":
        undecided.append("decomposable unknown")
    elif dec != "yes":
        wrong.append(f"decomposable {dec}")
    invalid = [] if wrong else _decomposable_flag_problems(H, d, report, dec)
    return _outcome(wrong, invalid, undecided)


@_guard
def check_nonpositive(H, d, report) -> Outcome:
    """A positivity violation that re-evaluates negative; not CP, not decomposable."""
    flags = report["flags"]
    wrong, invalid, undecided = [], [], []
    pos = flags["positive"]
    if pos["status"] == "inconclusive":
        undecided.append("positivity inconclusive")
    elif pos["status"] != "violation_found":
        wrong.append(f"positive {pos['status']}")
    else:
        w = pos["witness"]
        value = positivity_witness_value(
            H, complex_vector(w["eta"]), complex_vector(w["lam"]))
        if not value < 0.0:
            invalid.append(f"positivity witness value {value:.3e} is not negative")
    if flags["cp"] is not False:
        wrong.append(f"cp={flags['cp']}")
    dec = flags["decomposable"]
    if dec == "yes":
        wrong.append("decomposable yes for a non-positive map")
    elif dec == "unknown":
        undecided.append("decomposable unknown")
    elif not wrong:
        invalid += _decomposable_flag_problems(H, d, report, dec)
    return _outcome(wrong, invalid, undecided)


def check_faceform(H, truth, result) -> Outcome:
    """Positive, in the equality case, with the construction's canonical scalars."""
    wrong, invalid, undecided = [], [], []
    for key in ("positive", "unital_route"):
        status = result[key].status
        if status == "inconclusive":
            undecided.append(f"{key} inconclusive")
        elif status != "certified":
            wrong.append(f"{key} {status}")
    eq = result["equality"]
    if not eq.equality:
        wrong.append(f"equality case missed (gap {eq.gap:.3e})")
    elif "canonical" not in result:
        wrong.append("rows Y and Z reported independent")
    else:
        canon = result["canonical"]
        errs = (
            abs(abs(canon.y) - truth["abs_y"]),
            abs(abs(canon.z) - truth["abs_z"]),
            abs(canon.u - truth["u"]),
            abs(abs(canon.t) - truth["abs_t"]),
        )
        if not max(errs) <= CANON_TOL:
            invalid.append(f"canonical scalars off by {max(errs):.3e}")
    return _outcome(wrong, invalid, undecided)
