"""Golden digests of small XBUILDs: construction stays bit-identical.

Each case pins ``payload_digest(sketch_to_dict(...))`` of one seeded build.
A change to how the document is walked (edge recounts, edge
distributions, value-split proposals, the exact oracle) must reproduce
these builds exactly: same refinements chosen, same histograms, and the
same edge order in the persisted graph.  The cases cover the paper
figures, IMDB and the recursive XMark document, under the prototype and
the full (backward-count) configuration, with and without value
predicates in the sampled queries.
"""

import pytest

from repro.build import XBuild
from repro.datasets import (
    figure1_document,
    generate_imdb,
    generate_xmark,
    movie_document,
)
from repro.synopsis import TwigXSketch, XSketchConfig
from repro.synopsis.persist import payload_digest, sketch_to_dict

#: name -> (document factory, budget above the coarsest sketch, config,
#: sampled-query value probability, expected payload digest)
CASES = {
    "paperfig-figure1-full": (
        figure1_document,
        400,
        XSketchConfig.full(),
        0.5,
        "c1efee6f21a3402c1f5816df264aec8f7f9202ffb98a268d810da7008014ff17",
    ),
    "paperfig-movie": (
        movie_document,
        600,
        None,
        0.0,
        "d6c0347a0496d5efc307f8d76da87e083ece2381fe6fb2f8f2a5f3c6fbb23171",
    ),
    "imdb-3000": (
        lambda: generate_imdb(3000, seed=2),
        1500,
        None,
        0.5,
        "fd66ccc5059570b3753c5bf7a12ee99f9c6f8296550be38ea65f60287e9d2967",
    ),
    "imdb-2000-full": (
        lambda: generate_imdb(2000, seed=2),
        2500,
        XSketchConfig.full(),
        0.5,
        "0feb7d4a1f776b0969507c62145f2403596454d3f96e145d8021c43a3efde88d",
    ),
    "xmark-1500": (
        lambda: generate_xmark(1500, seed=1),
        1024,
        None,
        0.0,
        "9fd8302625d34820c2e2b997645d7026e3da7c1d2e68ca2665e83f3c961f588b",
    ),
    "xmark-1500-full": (
        lambda: generate_xmark(1500, seed=1),
        2500,
        XSketchConfig.full(),
        0.5,
        "1e2ed10b02e057b45901fc5f78c3b6b62ea4c5fded17a88d650b1400fb1ef323",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_digest_is_pinned(name):
    make, extra, config, value_probability, expected = CASES[name]
    tree = make()
    budget = TwigXSketch.coarsest(tree, config).size_bytes() + extra
    sketch = XBuild(
        tree,
        budget,
        config,
        seed=55,
        sample_value_probability=value_probability,
    ).run().sketch
    assert payload_digest(sketch_to_dict(sketch)) == expected
