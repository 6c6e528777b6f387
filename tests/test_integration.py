"""End-to-end integration tests reproducing the paper's headline behaviours."""

import pytest

from repro.circuits.arithmetic import adder, comparator, full_adder
from repro.circuits.crypto.aes import aes128
from repro.circuits.crypto.md5 import md5_block
from repro.mc import McDatabase
from repro.rewriting import RewriteParams, optimize, run_pipeline, standard_flow
from repro.xag import equivalent, multiplicative_depth


def test_fig2_full_adder_story():
    """Fig. 1 → Fig. 2: the full adder ends with multiplicative complexity 1."""
    fa = full_adder(style="naive")
    flow = run_pipeline(fa, standard_flow("mc"), params=RewriteParams(cut_size=3))
    assert flow.initial.num_ands == 3
    assert flow.final.num_ands == 1
    assert equivalent(fa, flow.final)


def test_table2_32bit_adder_reaches_known_optimum():
    """Table 2: the 32-bit adder is optimised down to 32 AND gates."""
    add = adder(32)
    result = optimize(add, params=RewriteParams(cut_size=6, cut_limit=12))
    assert result.final.num_ands == 32
    assert equivalent(add, result.final)


def test_table2_comparator_improves_like_paper():
    """Table 2 comparators: ~25 % AND reduction territory (we reach >= 20 %)."""
    cmp_ = comparator(16, signed=False, strict=True)
    result = optimize(cmp_, params=RewriteParams(cut_size=6, cut_limit=8))
    assert equivalent(cmp_, result.final)
    assert result.final.num_ands <= 0.8 * cmp_.num_ands


def test_table2_aes_shows_no_improvement():
    """Table 2: AES is already at (or very near) its multiplicative complexity."""
    aes = aes128(expanded_key_inputs=True, num_rounds=1)
    result = optimize(aes, params=RewriteParams(cut_size=4, cut_limit=6, verify=False),
                      max_rounds=1)
    reduction = 1.0 - result.final.num_ands / aes.num_ands
    assert reduction < 0.05


@pytest.mark.slow
def test_table2_md5_improves_substantially():
    """Table 2: MD5 loses the majority of its AND gates (paper: 58 % in one round)."""
    md5 = md5_block(num_steps=4)
    result = optimize(md5, params=RewriteParams(cut_size=6, cut_limit=8, verify=False),
                      max_rounds=2)
    reduction = 1.0 - result.final.num_ands / md5.num_ands
    assert reduction > 0.4


def test_multiplicative_depth_does_not_explode():
    """FHE side metric: optimisation should not blow up the AND depth."""
    add = adder(16)
    result = optimize(add, params=RewriteParams(cut_size=6, cut_limit=8))
    assert multiplicative_depth(result.final) <= multiplicative_depth(add) + 4


def test_database_reuse_across_benchmarks_increases_hit_rate():
    database = McDatabase()
    optimize(adder(8), database=database, params=RewriteParams(cut_size=4))
    first_hits = database.classification_cache.hits
    optimize(adder(12), database=database, params=RewriteParams(cut_size=4))
    assert database.classification_cache.hits > first_hits
    assert database.classification_cache.hit_rate > 0.3
