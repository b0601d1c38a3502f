"""Known answers for report_all: the verdict kind of every check in the
`report-all` report of each model in models/, and the exit code.

The kinds follow from the mathematics, not from a run:
- every geometry here has a null Killing vector and an anti-self-dual
  conformal structure, so the Killing, null, ASD, Lemma 2.1 spinor identities,
  Lax integrability and lift commutation all vanish exactly;
- the nontwisting normal form has zero twist; twisting_exp (G_zz = exp(zx-y))
  has a nonzero twist three-form;
- A2 = x and the nontwisting_generic data are projectively non-flat; the
  twisting example and flat_projective have A = 0, which is flat;
- pp-waves, heavenly_ppwave and Sparling-Tod are Ricci-flat; the nontwisting
  and twisting examples are not.

Byte-identical reports recorded at the commit that introduced the benchmark
live in reference/<model>.json.
"""

from __future__ import annotations

import json

# report-all on a builder geometry with a tetrad and a Killing vector
_KILLING = {
    "closure_c0": "pass", "closure_c1": "pass",
    "conformal_killing": "proven_zero", "eta": "pass",
    "iota.iota.psi": "proven_zero", "iota_geodesic_shear_free": "proven_zero",
    "o.o.phi": "proven_zero", "o_geodesic_shear_free": "proven_zero",
    "lax_integrability": "proven_zero",
    "lift_commutes_L0": "proven_zero", "lift_commutes_L1": "proven_zero",
    "lifted_killing": "pass", "null": "proven_zero",
    "primed_weyl_spinor": "proven_zero", "scalar_curvature": "pass",
}

EXPECTED_VERDICTS = {
    "betazero_a2x": {**_KILLING, "flatness_invariant": "nonzero",
                     "ricci_flat": "nonzero", "twist_three_form": "proven_zero"},
    "nontwisting_generic": {**_KILLING, "flatness_invariant": "nonzero",
                            "ricci_flat": "nonzero", "twist_three_form": "proven_zero"},
    "twisting_exp": {**_KILLING, "constraint_transport": "proven_zero",
                     "flatness_invariant": "proven_zero", "ricci_flat": "nonzero",
                     "twist_three_form": "nonzero"},
    "ppwave": {**_KILLING, "constraint_ricci_flat": "proven_zero",
               "ricci_flat": "proven_zero", "twist_three_form": "proven_zero"},
    "sparling_tod": {**_KILLING, "constraint_asd": "proven_zero",
                     "constraint_ricci_flat": "proven_zero",
                     "ricci_flat": "proven_zero", "twist_three_form": "proven_zero"},
    "heavenly_ppwave": {
        "closure_c0": "pass", "closure_c1": "pass",
        "constraint_heavenly": "proven_zero", "endomorphism_algebra": "proven_zero",
        "heavenly_residual": "proven_zero", "lax_integrability": "proven_zero",
        "primed_weyl_spinor": "proven_zero", "ricci_flat": "proven_zero",
        "scalar_curvature": "pass", "sigma_pullback_template": "proven_zero",
    },
    "flat_projective": {"flatness_invariant": "proven_zero"},
}

EXPECTED_EXIT = {model: 0 for model in EXPECTED_VERDICTS}


def report_mismatches(model: str, code: int, stdout: bytes, reference: bytes,
                      expected=EXPECTED_VERDICTS) -> int:
    """Wrong answers in one report: each check whose verdict kind differs from
    the known one (missing and unexpected checks included), plus one for a
    wrong exit code and one for a report that is not byte-identical."""
    wrong = int(code != EXPECTED_EXIT[model]) + int(stdout != reference)
    try:
        got = {c["name"]: c["verdict"] for c in json.loads(stdout)["checks"]}
    except (ValueError, KeyError, TypeError):
        return wrong + len(expected[model])
    want = expected[model]
    return wrong + sum(got.get(name) != kind for name, kind in want.items()) + sum(
        name not in want for name in got)
