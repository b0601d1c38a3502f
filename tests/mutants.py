"""Mutation check: each row plants one known fault and names the tests that
must catch it.

A row is a file under the repository root, a snippet that occurs exactly once
in it, its replacement, and the test node IDs that must fail (or error) with
the replacement in place.  Each row runs in its own temporary copy of the
tree, so the working tree is never touched.  A mutant survives when a named
test passes; an expected survivor is an equivalent mutant, listed with the
reason no test can catch it.  The tier-1 suite does not collect this file;
`tests/test_expr.py::test_mutant_snippets_occur_once` keeps the table in step
with the code.

    python3 tests/mutants.py [NAME ...]

With names, only those rows run; with none, every row.  `TMPDIR` decides
where the copies go.

Exit status 0 when every mutant run is killed and every expected survivor
survives, 1 otherwise, 2 for a name the table does not hold.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "models", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # why no test can tell it apart


MUTANTS = (
    Mutant("nabla_curl_sign", "src/asdnull/tensor.py",
           "nk[a][b], nk[b][a] = (lie + curl) / 2, (lie - curl) / 2",
           "nk[a][b], nk[b][a] = (lie - curl) / 2, (lie + curl) / 2",
           ("tests/test_spinor.py::test_killing_decompose_family",
            "tests/test_spinor.py::test_killing_data_matches_tree_oracle")),
    Mutant("psi_split_sign", "src/asdnull/spinor.py",
           "psi = [(FF(A, 0, B, 1) - FF(A, 1, B, 0)) / 2",
           "psi = [(FF(A, 0, B, 1) + FF(A, 1, B, 0)) / 2",
           ("tests/test_spinor.py::test_killing_data_matches_tree_oracle",
            "tests/test_spinor.py::test_two_form_decomposition_round_trip")),
    Mutant("vector_el_slots", "src/asdnull/spinor.py",
           "th[_SLOT[A, Ap]][a] * k[a]",
           "th[_SLOT[Ap, A]][a] * k[a]",
           ("tests/test_spinor.py::test_killing_data_matches_tree_oracle",)),
    Mutant("koszul_c_ijk_sign", "src/asdnull/frame.py",
           "(low(k, i, j) - low(i, j, k) + low(j, k, i)) / 2",
           "(low(k, i, j) + low(i, j, k) + low(j, k, i)) / 2",
           ("tests/test_spinor.py::test_curvature_reassembly_on_corpus",)),
    Mutant("riemann_c_gamma_sign", "src/asdnull/frame.py",
           "v -= C[m][k][l] * gam[i][m][j]",
           "v += C[m][k][l] * gam[i][m][j]",
           ("tests/test_spinor.py::test_curvature_reassembly_on_corpus",)),
    Mutant("scalar_curvature_12_lambda", "src/asdnull/spinor.py",
           "F.expr(lam * 24)",
           "F.expr(lam * 12)",
           ("tests/test_spinor.py::test_tetrad_ricci_matches_coordinate_route",)),
    Mutant("frame_ricci_no_eta", "src/asdnull/frame.py",
           "sum((_ETA[k] * R[k][i][3 - k][j] for k in _R), zero)",
           "sum((R[k][i][3 - k][j] for k in _R), zero)",
           ("tests/test_spinor.py::test_tetrad_ricci_matches_coordinate_route",)),
    Mutant("scaled_sign", "src/asdnull/expr.py",
           "return _El(self, f.c * q, f.num, f.e)",
           "return _El(self, abs(f.c * q), f.num, f.e)",
           ("tests/test_expr.py::test_conversion_matches_normalize_on_random_trees",)),
    Mutant("constant_quotient_inverted", "src/asdnull/expr.py",
           "return f.field.scaled(f, 1 / Fraction(g))",
           "return f.field.scaled(f, Fraction(g))",
           ("tests/test_spinor.py::test_curvature_reassembly_on_corpus",)),
    Mutant("e_not_exp_1", "src/asdnull/expr.py",
           "return sp.S.One if g is sp.E else None",
           "return None",
           ("tests/test_expr.py::test_conversion_matches_normalize_on_random_trees",)),
    Mutant("display_rule_normalizes_again", "src/asdnull/expr.py",
           "        return self.expr(el), el",
           "        return Expr(normalize(s)), el",
           ("tests/test_expr.py::test_normalize_is_not_idempotent_on_exp_of_a_negative_part",
            "tests/test_expr.py::test_trees_are_normalized_only_at_the_boundary")),
    Mutant("sum_common_denominator_dropped", "src/asdnull/expr.py",
           "f.num.mul_ground(f.c.numerator * (L // f.c.denominator)) for f in group",
           "f.num.mul_ground(f.c.numerator) for f in group",
           ("tests/test_expr.py::test_conversion_matches_normalize_on_random_trees",)),
    Mutant("fold_inverse_power_not_inverted", "src/asdnull/expr.py",
           "return self._fold(s.base) ** int(s.exp)",
           "return self._fold(s.base) ** abs(int(s.exp))",
           ("tests/test_expr.py::test_conversion_matches_normalize_on_random_trees",)),
    Mutant("coframe_metric_sign", "src/asdnull/construct.py",
           "- t[1][a] * t[2][b] - t[1][b] * t[2][a]",
           "+ t[1][a] * t[2][b] + t[1][b] * t[2][a]",
           ("tests/test_construct.py::test_flat_builder",
            "tests/test_construct.py::test_nontwisting_determined_coefficient")),
    Mutant("zero_element_invertible", "src/asdnull/expr.py",
           "self.zero = _El(self, Fraction(0), R.zero, {})",
           "self.zero = _El(self, Fraction(1), R.zero, {})",
           ("tests/test_expr.py::test_singular_input_is_a_typed_error_naming_it",)),
    # evaluation from an element, and the Petrov quartic
    Mutant("eval_pole", "src/asdnull/expr.py",
           "            if not den:\n"
           "                raise EvalError(\"division by zero at the point\")\n",
           "",
           ("tests/test_spinor.py::test_field_evaluation_edges",)),
    Mutant("eval_exponent_ignored", "src/asdnull/expr.py",
           "powers[i] = [n**e * q**(d - e) for e in range(d + 1)]",
           "powers[i] = [n * q**(d - e) for e in range(d + 1)]",
           ("tests/test_spinor.py::test_field_evaluation_matches_tree_route",)),
    Mutant("eval_base_exponent_ignored", "src/asdnull/expr.py",
           "den *= _poly_at(K.base[i], x) ** k",
           "den *= _poly_at(K.base[i], x)",
           ("tests/test_spinor.py::test_field_evaluation_matches_tree_route",)),
    Mutant("classification_points_read_views", "src/asdnull/spinor.py",
           "    names = sorted({s.name for el in w.el for i in el.field.used(el)\n"
           "                    for s in el.field.symbols[i].free_symbols})\n",
           "    names = sorted({nm for c in w.psi for nm in c.free_symbols()})\n",
           ("tests/test_displays.py::test_szekeres_views_each_weyl_spinor_element_once",)),
    Mutant("quartic_root_at_infinity_dropped", "src/asdnull/quartic.py",
           "    inf_mult = 5 - len(p)\n",
           "    inf_mult = 0\n",
           ("tests/test_quartic.py::test_root_at_infinity",
            "tests/test_quartic.py::test_exact_structure_of_quartics_built_from_known_factors")),
    Mutant("quartic_complex_pairs_counted_real", "src/asdnull/quartic.py",
           "nreal = dup_count_real_roots(factor, ZZ)",
           "nreal = len(factor) - 1",
           ("tests/test_quartic.py::test_complex_pairs_annotated",
            "tests/test_quartic.py::test_exact_structure_of_quartics_built_from_known_factors")),
    Mutant("quartic_multiplicity_one", "src/asdnull/quartic.py",
           "for factor, mult in dup_sqf_list(q, ZZ)[1]:",
           "for factor, mult in [(f, 1) for f, _ in dup_sqf_list(q, ZZ)[1]]:",
           ("tests/test_quartic.py::test_partition_consistency",
            "tests/test_quartic.py::test_exact_structure_of_quartics_built_from_known_factors")),
    # the evident roots read off the coefficients
    Mutant("quartic_zero_root_dropped", "src/asdnull/quartic.py",
           "    for mult in (inf_mult, zero_mult, power):\n",
           "    for mult in (inf_mult, power):\n",
           ("tests/test_quartic.py::test_root_at_infinity",
            "tests/test_quartic.py::test_exact_structure_matches_sympy_route_on_a_grid",
            "tests/test_quartic.py::test_exact_structure_of_evident_powers")),
    Mutant("quartic_power_checks_one_coefficient", "src/asdnull/quartic.py",
           "for k in range(2, d + 1))",
           "for k in range(2, min(d, 3) + 1))",
           ("tests/test_quartic.py::test_exact_structure_of_evident_powers",)),
    # the factored field: the sum's trial division, its exponent maximum, the
    # derivative's e_i D b_i / b_i terms, and irreducible base entry
    Mutant("sum_trial_division_skipped", "src/asdnull/expr.py",
           "content, t, e = self._reduced(t, e, e)",
           "content, t, e = self._reduced(t, e, ())",
           ("tests/test_expr.py::test_factored_arithmetic_matches_cancel",
            "tests/test_tensor.py::test_field_views_are_normal_forms")),
    Mutant("sum_first_operand_exponents", "src/asdnull/expr.py",
           "                if k > e.get(i, 0):\n",
           "                if i not in e:\n",
           ("tests/test_expr.py::test_factored_arithmetic_matches_cancel",)),
    Mutant("diff_base_exponent_dropped", "src/asdnull/expr.py",
           "poly(K.expand({j: 1 for j in f.e if j != i})) * k",
           "poly(K.expand({j: 1 for j in f.e if j != i}))",
           ("tests/test_expr.py::test_factored_arithmetic_matches_cancel",)),
    # the derivative's polynomial route: the e_i weight of D b_i, and the
    # denominator raised to e_i + 1 before trial division
    Mutant("diff_poly_weight_dropped", "src/asdnull/expr.py",
           "S += t if k == 1 else t.mul_ground(k)",
           "S += t",
           ("tests/test_expr.py::test_derivative_routes_agree",
            "tests/test_expr.py::test_factored_arithmetic_matches_cancel",
            "tests/test_construct.py::test_builders_match_tree_oracle")),
    Mutant("diff_poly_exponent_not_raised", "src/asdnull/expr.py",
           "return K.new(f.c / L, T, {i: k + 1 for i, k in f.e.items()})",
           "return K.new(f.c / L, T, dict(f.e))",
           ("tests/test_expr.py::test_derivative_routes_agree",
            "tests/test_expr.py::test_field_derivation_matches_sympy_diff",
            "tests/test_cli.py::test_report_all_matches_recorded_report")),
    Mutant("base_entered_unfactored", "src/asdnull/expr.py",
           "for f, k in rest.factor_list()[1]:",
           "for f, k in [(rest, 1)]:",
           ("tests/test_expr.py::test_factored_arithmetic_matches_cancel",)),
    Mutant("base_entry_trial_division_skipped", "src/asdnull/expr.py",
           "for i in range(len(self.base)):",
           "for i in range(self.ngens):",
           ("tests/test_expr.py::test_factored_arithmetic_matches_cancel",)),
    # the frame and spinor stages
    Mutant("gup_i_j_swapped", "src/asdnull/frame.py",
           "_ETA[m] * gam[3 - m][l][j]",
           "_ETA[m] * gam[3 - m][j][l]",
           ("tests/test_spinor.py::test_curvature_reassembly_on_corpus",)),
    Mutant("lambda_over_12", "src/asdnull/spinor.py",
           '_terms({"0123": "1/3", "0303": "-1/12", "0312": "1/6", "1212": "-1/12"})',
           '_terms({"0123": "2/3", "0303": "-1/6", "0312": "1/3", "1212": "-1/6"})',
           ("tests/test_spinor.py::test_tetrad_ricci_matches_coordinate_route",
            "tests/test_spinor.py::test_curvature_spinor_forms_match_contractions_on_units")),
    Mutant("lambda_coefficient", "src/asdnull/spinor.py",
           '{"0123": "1/3", "0303": "-1/12"',
           '{"0123": "1/6", "0303": "-1/12"',
           ("tests/test_spinor.py::test_curvature_spinor_forms_match_contractions_on_units",
            "tests/test_spinor.py::test_curvature_spinor_forms_match_contractions_on_corpus")),
    Mutant("curvature_spinor_psi2_sign", "src/asdnull/spinor.py",
           '"0312": "-1/3"',
           '"0312": "1/3"',
           ("tests/test_spinor.py::test_curvature_spinor_forms_match_contractions_on_units",
            "tests/test_spinor.py::test_curvature_spinor_forms_match_contractions_on_corpus",
            "tests/test_spinor.py::test_curvature_reassembly_on_corpus")),
    Mutant("ricci_reconstruction_check_disabled", "src/asdnull/spinor.py",
           "    if any(tet.reconstruction_el()):\n",
           "    if False:\n",
           ("tests/test_cli.py::test_curvature_of_a_tetrad_that_reconstructs_only_at_samples",)),
    # inputs fold into the field: a tree normalization added back
    Mutant("twisting_tree_check_restored", "src/asdnull/construct.py",
           "    F, tet, residual = _built(chart, \"twisting\", params, _twisting_transport)\n",
           "    F, tet, residual = _built(chart, \"twisting\", params, _twisting_transport)\n"
           "    if sp.cancel(params[\"G\"].sym) == 0:\n"
           "        raise ExprError(\"degenerate twisting metric: G vanishes identically\")\n",
           ("tests/test_expr.py::test_polynomial_builds_normalize_no_tree",
            "tests/test_expr.py::test_trees_are_normalized_only_at_the_boundary")),
    Mutant("metric_init_normalizes", "src/asdnull/tensor.py",
           "        _memo_el(self._cache, \"el\", F, lambda: els)\n",
           "        _memo_el(self._cache, \"el\", F, lambda: els)\n"
           "        self._comps = [[sp.cancel(e.sym) for e in row] for row in shown]\n",
           ("tests/test_expr.py::test_polynomial_builds_normalize_no_tree",
            "tests/test_displays.py::test_family_members_make_only_the_trees_zero_tests_read")),
    # the builders in the field: a coframe term, W0's power of s, and the
    # residuals' signs
    Mutant("twisting_c_gz_y_dropped", "src/asdnull/construct.py",
           " + F.diff(Gz, _y)",
           "",
           ("tests/test_construct.py::test_builders_match_tree_oracle",
            "tests/test_twistor.py::test_twisting_lax_integrable",
            "tests/test_cli.py::test_report_all_matches_recorded_report")),
    Mutant("sparling_w0_s_squared", "src/asdnull/construct.py",
           "F.fold(trees[\"s\"]) ** -3",
           "F.fold(trees[\"s\"]) ** -2",
           ("tests/test_construct.py::test_builders_match_tree_oracle",
            "tests/test_construct.py::test_sparling_tod_uv_constraints",
            "tests/test_acceptance.py::test_criterion_9_sparling_tod_as_stated")),
    Mutant("nontwisting_e_beta_y_sign", "src/asdnull/construct.py",
           "z * (-F.diff(beta, _y) + A1",
           "z * (F.diff(beta, _y) + A1",
           ("tests/test_construct.py::test_builders_match_tree_oracle",
            "tests/test_spinor.py::test_betazero_structural_formulas")),
    Mutant("heavenly_tx_squared_sign", "src/asdnull/construct.py",
           "+ thTT * thXX - thTX**2",
           "+ thTT * thXX + thTX**2",
           ("tests/test_construct.py::test_builders_match_tree_oracle",
            "tests/test_construct.py::test_heavenly_vacuum_type3")),
    Mutant("transport_z_d_y_dropped", "src/asdnull/construct.py",
           "F.fold(_z) * F.diff(H, _y)",
           "F.diff(H, _y)",
           ("tests/test_construct.py::test_builders_match_tree_oracle",
            "tests/test_construct.py::test_g_residual_cases",
            "tests/test_construct.py::test_twisting_exp_constraint_sampled")),
    Mutant("nontwisting_a0_a1_sign", "src/asdnull/construct.py",
           "- b * p[\"A1\"]",
           "+ b * p[\"A1\"]",
           ("tests/test_construct.py::test_builders_match_tree_oracle",
            "tests/test_construct.py::test_nontwisting_determined_coefficient")),
    # the projective flatness invariant: Liouville's closed form
    Mutant("liouville_a2_a1y_dropped", "src/asdnull/projective.py",
           " + A2 * A1y",
           "",
           ("tests/test_projective.py::test_flatness_invariant_matches_tree_oracle",)),
    Mutant("liouville_a0_a3x_halved", "src/asdnull/projective.py",
           "6 * A0 * A3x",
           "3 * A0 * A3x",
           ("tests/test_projective.py::test_flatness_invariant_matches_tree_oracle",)),
    Mutant("liouville_slots_swapped", "src/asdnull/projective.py",
           "return 2 * La * F.fold(lam) + 2 * Lb",
           "return 2 * Lb * F.fold(lam) + 2 * La",
           ("tests/test_projective.py::test_flatness_invariant_matches_tree_oracle",
            "tests/test_projective.py::test_flatness_nonzero_witness",
            "tests/test_projective.py::test_flatness_constant_coefficients_regression")),
    # elements stay elements: the heavenly Sigma stage, the type-N conditions,
    # Field.up placing an older element's polynomials, and a memo kept beside
    # its field
    Mutant("sigma01_half_dropped", "src/asdnull/construct.py",
           "(w03[c][d] + w12[c][d]) / 2",
           "(w03[c][d] + w12[c][d])",
           ("tests/test_construct.py::test_sigma_stage_matches_tree_oracle",
            "tests/test_construct.py::test_heavenly_two_forms_and_algebra",
            "tests/test_cli.py::test_heavenly_command",
            "tests/test_acceptance.py::test_criterion_6_heavenly_consistency")),
    Mutant("template_qt_sign", "src/asdnull/construct.py",
           "qt = -_heavenly_hessian(F, p[\"Theta\"])[0]",
           "qt = _heavenly_hessian(F, p[\"Theta\"])[0]",
           ("tests/test_construct.py::test_sigma_stage_matches_tree_oracle",
            "tests/test_construct.py::test_heavenly_two_forms_and_algebra",
            "tests/test_cli.py::test_report_all_matches_recorded_report")),
    Mutant("typeN_gamma_y_sign", "src/asdnull/construct.py",
           "- F.diff(ga, _y) + ro",
           "+ F.diff(ga, _y) + ro",
           ("tests/test_construct.py::test_fefferman_conditions_match_tree_route",)),
    Mutant("up_exp_rescale_dropped", "src/asdnull/expr.py",
           "e[i] += k * j",
           "e[i] += j",
           ("tests/test_expr.py::test_up_moves_elements_without_a_view",
            "tests/test_expr.py::test_field_grows_and_moves_old_elements",
            "tests/test_expr.py::test_conversion_matches_normalize_on_random_trees")),
    Mutant("up_base_exponent_dropped", "src/asdnull/expr.py",
           "out = out / placed(old.base[i]) ** k",
           "out = out / placed(old.base[i])",
           ("tests/test_expr.py::test_up_moves_elements_without_a_view",)),
    Mutant("up_stale_memo_after_growth", "src/asdnull/expr.py",
           "            if obj.K is not K:\n"
           "                obj.value, obj.K = self.up(obj.value), K\n",
           "",
           ("tests/test_expr.py::test_up_keeps_a_current_memo_and_moves_every_leaf_after_growth",
            "tests/test_expr.py::test_memos_hold_their_fields_elements",
            "tests/test_spinor.py::test_killing_data_matches_tree_oracle")),
    # displays on first read: the zero element's shortcut and the lazy views
    Mutant("zero_shortcut_accepts_nonzero", "src/asdnull/expr.py",
           "    if e.el is not None and not e.el:\n",
           "    if e.el is not None:\n",
           ("tests/test_displays.py::test_lazy_displays_and_verdicts_match_the_eager_views",
            "tests/test_displays.py::test_zero_element_is_proven_without_a_tree")),
    Mutant("proven_zero_element_inverted", "src/asdnull/expr.py",
           "            return not self._el\n",
           "            return bool(self._el)\n",
           ("tests/test_displays.py::test_zero_element_is_proven_without_a_tree",)),
    Mutant("spin_coefficient_views_eager", "src/asdnull/spinor.py",
           "    return _memo_el(tet._coeff_cache, \"spin_coefficients\", g.field, compute)\n",
           "    out = _memo_el(tet._coeff_cache, \"spin_coefficients\", g.field, compute)\n"
           "    tuple(_nested_map(Field.view, t) for t in out)\n"
           "    return out\n",
           ("tests/test_displays.py::test_family_members_make_only_the_trees_zero_tests_read",)),
    # the one element memo: read back without moving it into the current field
    Mutant("memo_el_not_moved", "src/asdnull/tensor.py",
           "    return F.up(_memo(cache, key, F, lambda: F.held(fn())))\n",
           "    return _memo(cache, key, F, lambda: F.held(fn())).value\n",
           ("tests/test_expr.py::test_memos_hold_their_fields_elements",
            "tests/test_spinor.py::test_killing_data_matches_tree_oracle")),
    # the sampler's integer draws and the scalar RK4 step
    Mutant("draw_sign_flipped", "src/asdnull/expr.py",
           "pairs.append((p + 1 if rand() < 0.5 else -1 - p, q + 1))",
           "pairs.append((-1 - p if rand() < 0.5 else p + 1, q + 1))",
           ("tests/test_expr.py::test_sampler_stream_is_pinned",
            "tests/test_expr.py::test_zero_test_verdicts_are_pinned",
            "tests/test_expr.py::test_draws_reproduce_randint")),
    # the stream drawn by getrandbits: randint's rejection test and bit count
    Mutant("draw_rejection_admits_bound", "src/asdnull/expr.py",
           "while p >= bound:",
           "while p > bound:",
           ("tests/test_expr.py::test_draws_reproduce_randint",)),
    Mutant("draw_bits_one_short", "src/asdnull/expr.py",
           "k = bound.bit_length()",
           "k = (bound - 1).bit_length()",
           ("tests/test_expr.py::test_draws_reproduce_randint",)),
    # the memo on normalize keeps the cancelled form
    Mutant("normal_memo_uncancelled", "src/asdnull/expr.py",
           "        n = _remember(_normal_cache, s, sp.cancel(sp.together(s)), _NORMAL_CAP)\n",
           "        n = sp.cancel(sp.together(s))\n"
           "        _remember(_normal_cache, s, sp.together(s), _NORMAL_CAP)\n",
           ("tests/test_expr.py::test_normalize_matches_cancel_on_seeded_trees",
            "tests/test_expr.py::test_normalize_runs_no_second_cancel_on_an_equal_tree")),
    # a kernel-free expression decides its own zero test
    Mutant("kernel_free_exact_check_dropped", "src/asdnull/expr.py",
           "    if _kernel_free(e):\n"
           "        return _exact_witness(e, names, cfg.seed, max_attempts)\n",
           "",
           ("tests/test_expr.py::test_kernel_free_nonzero_reads_nonzero",
            "tests/test_expr.py::test_exact_witness_skips_draws_where_the_value_vanishes",
            "tests/test_cli.py::test_curvature_of_a_small_nonzero_ricci_tensor_exits_1")),
    Mutant("exact_witness_where_value_vanishes", "src/asdnull/expr.py",
           "        if exact:\n",
           "        if exact is not None:\n",
           ("tests/test_expr.py::test_exact_witness_skips_draws_where_the_value_vanishes",
            "tests/test_expr.py::test_exact_witness_search_is_bounded")),
    Mutant("witness_from_next_draw", "src/asdnull/expr.py",
           "return Verdict.nonzero(_point(names, pairs), float(value))",
           "return Verdict.nonzero(_point(names, next(draws)), float(value))",
           ("tests/test_expr.py::test_zero_test_verdicts_are_pinned",
            "tests/test_expr.py::test_is_zero_examples")),
    Mutant("rk4_stage_reads_l2_for_l3", "src/asdnull/projective.py",
           "d = fn(x + h, y + h * l3, l4)",
           "d = fn(x + h, y + h * l2, l4)",
           ("tests/test_projective.py::test_geodesic_points_equal_the_tuple_rk4",
            "tests/test_projective.py::test_geodesic_fourth_order_convergence")),
    Mutant("divergence_check_without_lam", "src/asdnull/projective.py",
           "if not (abs(x) <= 1e12 and abs(y) <= 1e12 and abs(lam) <= 1e12):",
           "if not (abs(x) <= 1e12 and abs(y) <= 1e12):",
           ("tests/test_projective.py::test_geodesic_points_equal_the_tuple_rk4",)),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _failed(output: str) -> set[str]:
    """Node IDs that pytest's short summary (-rfE) reports failed or errored;
    a parametrized test's failure (`name[params]`) also counts as `name`'s."""
    out = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                node = line[len(tag):].split(" - ")[0].strip()
                out |= {node, node.split("[")[0]}
    return out


def run(m: Mutant) -> tuple[str, str]:
    """(outcome, detail): "killed" when every named test fails or
    errors, "survived" when one passes, "broken" when the row cannot run."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{m.name}-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        target = tree / m.path
        text = target.read_text()
        if text.count(m.snippet) != 1:
            return "broken", f"snippet occurs {text.count(m.snippet)} times"
        target.write_text(text.replace(m.snippet, m.replacement))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *m.tests],
            cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return "broken", f"pytest exit {proc.returncode}: {proc.stdout[-400:]}{proc.stderr[-400:]}"
    caught = _failed(proc.stdout)
    passed = [t for t in m.tests if t not in caught]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "killed", f"{len(m.tests)} of {len(m.tests)} failed"


def main(names: list[str]) -> int:
    """Run the named rows, or every row when no name is given."""
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    rows = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    wrong = []  # live survivors, killed equivalents and rows that could not run
    counts = {"killed": 0, "survived": 0, "broken": 0}
    for m in rows:
        outcome, detail = run(m)
        counts[outcome] += 1
        expected = "survived" if m.equivalent else "killed"
        if outcome != expected:
            wrong.append(m)
        note = f" (equivalent: {m.equivalent})" if m.equivalent else ""
        print(f"{m.name:32} {outcome}{note}: {detail}", flush=True)
    print(f"{len(rows)} mutants: {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['broken']} could not run, in {time.perf_counter() - start:.0f} s")
    for m in wrong:
        print(f"  unexpected: {m.name}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
