"""Output checks: independent computations where cheap, stored references otherwise.

Integers and strings compare exactly; reals compare to RTOL relative
(plus ATOL absolute, for values that are zero up to rounding), never as
bytes, so a change that moves the 15th digit still passes.  References
recorded from the seed live in refs.json (see record_refs.py); inputs on
which the seed fails are checked only by the independent computations
here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
MODEL_TOL = 1e-10  # relation and unitarity defects must be zero up to this
DENSE_CUTOFF = 3.0  # dense block diagonalization is cheap below this
REFS_PATH = Path(__file__).with_name("refs.json")


def digest(value) -> dict:
    """Stand-in for an integer list too large to keep in refs.json."""
    canon = json.dumps(value, separators=(",", ":"))
    return {"__sha256__": hashlib.sha256(canon.encode()).hexdigest(), "__len__": len(value)}


def close(x: float, y: float) -> bool:
    return abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL


def compare(got, want, path: str, errors: list[str]) -> None:
    """Append a message per mismatch between an output and a reference."""
    if len(errors) >= 5:
        return
    if isinstance(want, dict) and set(want) == {"__sha256__", "__len__"}:
        if not isinstance(got, list) or digest(got) != want:
            errors.append(f"{path}: digest differs")
        return
    if isinstance(want, bool) or want is None or isinstance(want, str):
        if got != want or type(got) is not type(want):
            errors.append(f"{path}: {got!r} != {want!r}")
    elif isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            errors.append(f"{path}: {got!r} is not a number")
        elif isinstance(want, int) and isinstance(got, int):
            if got != want:
                errors.append(f"{path}: {got} != {want}")
        elif not close(float(got), float(want)):
            errors.append(f"{path}: {got!r} != {want!r} (rtol {RTOL:g})")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{path}[{i}]", errors)
    elif isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            errors.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}")
            return
        for k in want:
            compare(got[k], want[k], f"{path}.{k}", errors)
    else:
        raise TypeError(f"unsupported reference value at {path}: {want!r}")


def word_str(word) -> str:
    return "".join(str(x) for x in word)


def admissible_words(a, m: int) -> list[tuple[int, ...]]:
    """All admissible words of length m over letters 1..n, lexicographic."""
    n = len(a)
    return [
        w
        for w in itertools.product(range(1, n + 1), repeat=m)
        if all(a[w[i] - 1][w[i + 1] - 1] for i in range(m - 1))
    ]


def merge(pairs, tol=1e-9):
    out: list[list] = []
    for val, mult in sorted(pairs):
        if out and val - out[-1][0] <= tol:
            out[-1][1] += mult
        else:
            out.append([val, mult])
    return out


class Oracle:
    """Independent answers for one input matrix, computed once per run."""

    def __init__(self, a: list[list[int]]):
        self.a = a
        self.n = len(a)
        self.A = np.array(a, dtype=np.int64)
        self.is_full = bool(self.A.all())

    @cached_property
    def pf(self) -> dict:
        af = self.A.astype(float)
        vals, vecs = np.linalg.eig(af)
        k = int(np.argmax(vals.real))
        lam = float(vals[k].real)
        u = np.abs(vecs[:, k].real)
        u /= u.sum()
        vals_t, vecs_t = np.linalg.eig(af.T)
        v = np.abs(vecs_t[:, int(np.argmax(vals_t.real))].real)
        v /= float(u @ v)
        b = self.A > 0
        power, exponent = b.copy(), 1
        while not power.all():
            power = (power.astype(np.int64) @ self.A) > 0
            exponent += 1
        stoch = af * u[None, :] / (lam * u[:, None])
        return {
            "primitivity_exponent": exponent,
            "lambda_max": lam,
            "dimension": math.log(lam) / math.log(2.0),
            "u": u.tolist(),
            "v": v.tolist(),
            "p_stat": (u * v).tolist(),
            "stochastic": stoch.tolist(),
        }

    @property
    def generic(self) -> bool:
        """PF entries pairwise distinct: the PF rule zeroes every
        off-diagonal projection variable."""
        u = sorted(self.pf["u"])
        return all(b - a > 1e-6 * u[-1] for a, b in zip(u, u[1:]))

    def measures(self, depth: int) -> dict:
        pf = self.pf
        lam, u, v = pf["lambda_max"], pf["u"], pf["v"]
        a, n = self.a, self.n
        table, ratios = {}, []
        for m in range(1, depth + 1):
            rows = []
            for w in admissible_words(a, m):
                parry = v[w[0] - 1] * u[w[-1] - 1] / lam ** (m - 1)
                tail = sum(a[w[-1] - 1][j] * u[j] for j in range(n))
                rows.append(
                    {
                        "word": word_str(w),
                        "conformal": u[w[-1] - 1] / lam ** (m - 1),
                        "parry": parry,
                        "kms_diagonal": tail / lam**m,
                    }
                )
                ratios.append(parry * lam**m)
            table[str(m)] = rows
        counts = {}
        for total in range(1, depth + 1):
            for r_len in range(total):
                s_len = total - r_len
                counts[f"{r_len}.{s_len}"] = self._bisections(r_len, s_len)
        return {
            "cylinders": table,
            "regularity_ratio": {"min": min(ratios), "max": max(ratios)},
            "bisection_counts": counts,
        }

    def _bisections(self, r_len: int, s_len: int) -> int:
        """Brute-force count of pairs (r, s) meeting the bisection rule."""
        a = self.a
        s_words = admissible_words(a, s_len)
        if r_len == 0:
            return len(s_words)
        total = 0
        for r in admissible_words(a, r_len):
            for s in s_words:
                if a[r[-1] - 1][s[-1] - 1] and (s_len == 1 or r[-1] != s[-2]):
                    total += 1
        return total

    def full_shift_spectrum(self, cutoff: float, tol: float = 1e-9) -> list[list]:
        """Closed form on the full shift: lambda u = 1 and every extension
        step adds 1 - 1/n to the cell value; n^k cells at depth k."""
        n = self.n
        step = (n - 1) / n
        pairs = []
        for total in range(1, int(math.floor(cutoff + tol)) + 1):
            for s_len in range(1, total + 1):
                r_len = total - s_len
                if r_len == 0:
                    prefixes = 1
                elif s_len == 1:
                    prefixes = n**r_len
                else:
                    prefixes = (n - 1) * n ** (r_len - 1)
                mult = n**s_len * prefixes
                pairs.append((total if s_len == 1 else -total, mult))
                k = 0
                while 1 + k * step + total <= cutoff + tol:
                    pairs.append((-(1 + k * step + total), (n - 1) * n**k * mult))
                    k += 1
        return merge(pairs, tol)

    def dense_spectrum(self, cutoff: float) -> list[list]:
        """Per-block dense diagonalization (shiftlab.spectrum_dense)."""
        from shiftlab.core import AdjacencySpec, perron_frobenius
        from shiftlab.spectral import spectrum_dense

        pf = perron_frobenius(AdjacencySpec.from_matrix(self.a))
        return [[e, m] for e, m in spectrum_dense(pf, cutoff)]

    @cached_property
    def group(self) -> np.ndarray:
        """All automorphisms (0-based rows), lexicographic; n <= 7."""
        perms = np.array(list(itertools.permutations(range(self.n))), dtype=np.int64)
        image = self.A[perms[:, :, None], perms[:, None, :]]
        return perms[(image == self.A).all(axis=(1, 2))]

    def classical_fix(self, level: int) -> dict:
        words = admissible_words(self.a, level)
        w = np.array(words, dtype=np.int64) - 1
        images = self.group[:, w]  # (|G|, words, level)
        weights = self.n ** np.arange(level - 1, -1, -1)
        key = (images @ weights).min(axis=0)  # code of the orbit's least word
        orbits: dict[int, list[str]] = {}
        for k, word in zip(key.tolist(), words):
            orbits.setdefault(k, []).append(word_str(word))
        cycles = [word_str(x) for x in words if self.a[x[-1] - 1][x[0] - 1]]
        return {
            "level": level,
            "dimension": len(orbits),
            "orbits": [orbits[k] for k in sorted(orbits)],
            "cycle_witness": cycles,
            "witness_proper": 0 < len(cycles) < len(words),
        }

    def pattern(self) -> dict | None:
        n = self.n
        if self.is_full:
            grid = ["." * n] * n
            diagnosis = "Indeterminate"
        elif self.generic:
            grid = ["".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
            diagnosis = "DualFreeGroup"
        else:
            return None
        return {"p": grid, "q": grid, "diagnosis": diagnosis, "pf_rule": True}

    def ergodicity(self, level: int) -> dict | None:
        if self.is_full:  # independent tensor legs certify every pair
            return {"level": level, "verdict": "ErgodicCertified", "witness": None}
        if self.generic:  # only diagonal pairs survive: singleton components
            first = admissible_words(self.a, level)[0]
            return {"level": level, "verdict": "NonErgodic", "witness": [word_str(first)]}
        return None

    def t_a_matrix(self) -> list[list[int]]:
        n = self.n
        flip = np.zeros((n * n, n * n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                flip[i * n + j, j * n + i] = 1
        return (np.kron(self.A.T, self.A) @ flip).tolist()


def check_generators(perms: list, gens: list, errors: list[str]) -> None:
    """The generators lie in the group and generate all of it."""
    group = {tuple(p) for p in perms}
    if not all(tuple(g) in group for g in gens):
        errors.append("autgroup.generators: not all in the group")
        return
    if not perms:
        return
    ident = tuple(range(1, len(perms[0]) + 1))
    seen, frontier = {ident}, [ident]
    while frontier:
        h = frontier.pop()
        for g in gens:
            prod = tuple(h[x - 1] for x in g)
            if prod not in seen:
                seen.add(prod)
                frontier.append(prod)
    if seen != group:
        errors.append(f"autgroup.generators: generate {len(seen)} of {len(group)}")


def spectrum_pairs(results: dict) -> list[list]:
    return [[e["value"], e["multiplicity"]] for e in results["eigenvalues"]]


class Checker:
    """Checks every op's output; oracles are cached per input fingerprint."""

    def __init__(self):
        self.refs = json.loads(REFS_PATH.read_text())
        self.oracles: dict[str, Oracle] = {}
        self.verified: dict[str, list[str]] = {}  # output digest -> errors

    def oracle(self, op) -> Oracle:
        fp = op["fingerprint"]
        if fp not in self.oracles:
            self.oracles[fp] = Oracle(op["matrix"])
        return self.oracles[fp]

    def stored(self, op, key=None):
        """Reference for a fixed input, or for a random n = 3 member."""
        if op["id"] in self.refs:
            ref = self.refs[op["id"]]
        else:
            ref = self.refs.get(f"{op['cmd']}:n3/{op['fingerprint']}")
        if ref is not None and key is not None:
            ref = ref.get(key)
        return ref

    def check(self, op, report_text: str, csv_text: str | None) -> list[str]:
        # Identical bytes (wall time aside) were already checked this run.
        body = report_text[: report_text.rfind('"wall_time_ms"')]
        key = hashlib.sha256((op["id"] + body + (csv_text or "")).encode()).hexdigest()
        if key not in self.verified:
            errors: list[str] = []
            try:
                self._check(op, json.loads(report_text), csv_text, errors)
            except Exception as exc:  # a malformed report, or no reference to check it by
                errors.append(f"cannot check: {type(exc).__name__}: {exc}")
            self.verified[key] = errors
        return self.verified[key]

    def _check(self, op, report, csv_text, errors) -> None:
        if report["command"] != op["cmd"]:
            errors.append(f"command {report['command']!r}")
        if report["fingerprint"] != op["fingerprint"]:
            errors.append(f"fingerprint {report['fingerprint']} != {op['fingerprint']}")
        results = report["results"]
        cmd = op["cmd"]
        if cmd == "report":
            self._report(op, results, errors)
        elif cmd == "spectrum":
            self._spectrum(op, results, op["cutoff"], self.stored(op), errors, "spectrum")
            self._csv(results, csv_text, errors)
        elif cmd == "repmodel":
            self._repmodel(op, results, errors)
        else:
            oracle = self.oracle(op)
            if cmd == "pf":
                self._pf(op, oracle, results, errors)
            elif cmd == "autgroup":
                self._autgroup(oracle, results, errors)
            elif cmd == "classical-fix":
                compare(results, oracle.classical_fix(op["level"]), "classical-fix", errors)
            elif cmd in ("pattern", "ergodicity"):
                want = oracle.pattern() if cmd == "pattern" else oracle.ergodicity(op["level"])
                if want is None:
                    raise ValueError(f"no reference for {op['id']}")
                compare(results, want, cmd, errors)
            else:
                raise ValueError(f"no check for command {cmd}")

    def _report(self, op, bundle, errors) -> None:
        oracle = self.oracle(op)
        sections = ["pf", "measures", "spectrum", "autgroup", "pattern",
                    "classical-fix", "ergodicity", "t-a"]
        if set(bundle) != set(sections):
            errors.append(f"report sections {sorted(bundle)}")
            return
        for name in sections:
            sec = bundle[name]
            if name == "t-a" and not sec["ok"]:
                # a typed, bounded refusal is a correct answer for t-a
                if sec["error"] not in ("LengthOverflow", "SearchCapExceeded"):
                    errors.append(f"t-a failed with {sec['error']}")
                continue
            if not sec["ok"]:
                errors.append(f"{name} failed with {sec['error']}: {sec['message']}")
                continue
            res = sec["results"]
            if name == "pf":
                self._pf(op, oracle, res, errors)
            elif name == "measures":
                compare(res, oracle.measures(4), "measures", errors)
            elif name == "spectrum":
                self._spectrum(op, res, 5.0, self.stored(op, "spectrum"), errors, "spectrum")
            elif name == "autgroup":
                self._autgroup(oracle, res, errors)
            elif name == "classical-fix":
                compare(res, oracle.classical_fix(3), "classical-fix", errors)
            elif name in ("pattern", "ergodicity"):
                want = oracle.pattern() if name == "pattern" else oracle.ergodicity(3)
                ref = self.stored(op, name)
                if want is None and ref is None:
                    errors.append(f"{name}: no reference")
                for w in (want, ref):
                    if w is not None:
                        compare(res, w, name, errors)
            elif name == "t-a":
                self._t_a(op, oracle, res, errors)

    def _pf(self, op, oracle, res, errors) -> None:
        compare(res, oracle.pf, "pf", errors)
        if "exponent" in op:  # Wielandt: the exponent attains n^2 - 2n + 2
            compare(res["primitivity_exponent"], op["exponent"], "pf.wielandt_exponent", errors)

    def _t_a(self, op, oracle, res, errors) -> None:
        compare(res["matrix"], oracle.t_a_matrix(), "t-a.matrix", errors)
        ref = self.stored(op, "t-a")
        if ref is not None:
            compare(res, ref, "t-a", errors)
        elif oracle.is_full:  # every permutation commutes with all-ones
            if res["group_order"] != math.factorial(oracle.n**2):
                errors.append(f"t-a.group_order {res['group_order']}")
        else:
            errors.append("t-a: no reference")

    def _autgroup(self, oracle, res, errors) -> None:
        perms = (oracle.group + 1).tolist()
        compare(res["order"], len(perms), "autgroup.order", errors)
        compare(res["permutations"], perms, "autgroup.permutations", errors)
        check_generators(res["permutations"], res["generators"], errors)

    def _spectrum(self, op, res, cutoff, ref, errors, path) -> None:
        oracle = self.oracle(op)
        compare(res["cutoff"], float(cutoff), f"{path}.cutoff", errors)
        pairs = spectrum_pairs(res)
        if ref is not None:
            compare(res, ref, path, errors)
        if oracle.is_full:
            compare(pairs, oracle.full_shift_spectrum(cutoff), f"{path}.closed_form", errors)
        elif ref is None:
            errors.append(f"{path}: no reference")
        low = min(cutoff, DENSE_CUTOFF)
        head = [p for p in pairs if abs(p[0]) <= low + 1e-9]
        compare(head, oracle.dense_spectrum(low), f"{path}.dense<={low:g}", errors)
        counting = {}
        t = 1
        while t <= cutoff:
            counting[str(t)] = sum(m for e, m in pairs if abs(e) <= t + 1e-9)
            t += 1
        compare(res["counting_function"], counting, f"{path}.counting_function", errors)

    def _csv(self, res, csv_text, errors) -> None:
        if csv_text is None:
            errors.append("spectrum CSV missing")
            return
        lines = csv_text.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        got = [[float(v), int(m)] for v, m in rows]
        if lines[0] != "eigenvalue,multiplicity":
            errors.append(f"CSV header {lines[0]!r}")
        compare(got, spectrum_pairs(res), "spectrum.csv", errors)

    def _repmodel(self, op, res, errors) -> None:
        n = op.get("size", 4)
        projections = model_projections(op)
        dim = projections.shape[-1]
        norms = {}
        if n >= 4:
            for i, k, l in itertools.permutations(range(1, n + 1), 3):
                prod = projections[k - 1, l - 1] @ projections[i - 1, i - 1] @ projections[l - 1, l - 1]
                norms[f"{i},{k},{l}"] = float(np.linalg.norm(prod, 2))
        want = {
            "model": op["model"],
            "grid_size": n,
            "leg_dimension": dim,
            "words_checked": sum(n ** (2 * m) for m in range(1, op["ell"] + 1)),
            "normality_norms": norms,
            "max_normality_norm": max(norms.values()) if norms else None,
        }
        got = {k: res[k] for k in want}
        compare(got, want, "repmodel", errors)
        for key in ("relation_defect", "unitarity_defect"):
            if not 0.0 <= res[key] <= MODEL_TOL:
                errors.append(f"repmodel.{key} = {res[key]!r} above {MODEL_TOL:g}")


def model_projections(op) -> np.ndarray:
    """The model's grid of projections, rebuilt from its definition."""
    if op["model"] == "two-projection":
        theta = float(np.pi / 5)  # the CLI's default angle
        c, s = math.cos(theta), math.sin(theta)
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        q = np.array([[c * c, c * s], [c * s, s * s]])
        e, z = np.eye(2), np.zeros((2, 2))
        return np.array([[p, e - p, z, z], [e - p, p, z, z], [z, z, q, e - q], [z, z, e - q, q]])
    n = op["size"]
    if op["model"] == "classical":  # identity permutation, d = 1
        return np.eye(n).reshape(n, n, 1, 1)
    from shiftlab.models import random_qls_vectors

    vecs = random_qls_vectors(n, seed=op["qls_seed"])
    return np.einsum("ija,ijb->ijab", vecs, vecs.conj())
