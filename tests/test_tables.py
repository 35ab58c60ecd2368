"""The table scripts beside the tests (pair_form_table.py, pack_table.py)
reach into private names of the package; a smoke run of each on one tiny
input keeps them in step with it."""

import pair_form_table
import pack_table

from sepgamma import classify, complete_graph, engine, path_graph


def test_pair_form_table_runs_on_k4():
    g = complete_graph(4)
    block = 0b1111
    assert pair_form_table.rule(g.edges, block, block, 0b1000) == "subsets"
    for form in pair_form_table.FORMS:
        assert pair_form_table.best_time([(g.edges, block)], block, 0b1000, form, 1) >= 0
    assert pair_form_table.views_time(classify(g).blocks, 1) >= 0


def test_pack_table_runs_on_p10():
    g = path_graph(10)
    cls = classify(g)
    assert pack_table.ratio(lambda: engine._even_cycle_tiling(g, cls, 2, -2), 1) > 0
    assert pack_table.transform_row(10, 1)[1] > 0
