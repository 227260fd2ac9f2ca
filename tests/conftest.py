import os

import pytest

from rasphy import (Phylogeny, RateDistribution, RegularityParams,
                    SubstitutionModel, parse_newick)


@pytest.fixture(autouse=True)
def no_leaked_child_process():
    """Fail a test after which a child process is left unreaped, such as
    a simulation worker that nothing waited for."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"test left a child process behind (waitpid gave pid {pid}, "
                f"status {status}; pid 0 means it is still running)")


@pytest.fixture
def quartet() -> Phylogeny:
    """((a,b),(c,d)) with all edges 1 (internal edge 2 after root merge)."""
    return parse_newick("((a:1,b:1):1,(c:1,d:1):1);")


@pytest.fixture
def five_leaf() -> Phylogeny:
    """Fixed 5-leaf tree with edges inside [0.1, 0.2]."""
    return parse_newick(
        "((a:0.1,b:0.2):0.15,(c:0.12,d:0.18):0.11,e:0.14);")


@pytest.fixture
def six_leaf_cherries() -> Phylogeny:
    """Three cherries around a central path; used for disjointness tests."""
    return parse_newick(
        "((a:0.15,b:0.1):0.12,(c:0.2,d:0.17):0.14,(e:0.1,f:0.2):0.1);")


@pytest.fixture
def cfn() -> SubstitutionModel:
    return SubstitutionModel.uniform(2)


@pytest.fixture
def jc() -> SubstitutionModel:
    return SubstitutionModel.uniform(4)


@pytest.fixture
def two_speed() -> RateDistribution:
    return RateDistribution.two_speed(0.5, 1.5)


@pytest.fixture
def reg_01_02() -> RegularityParams:
    return RegularityParams(0.1, 0.2, 1.5)


def brute_force_splits(tree) -> frozenset:
    """Independent bipartition oracle using only the public adjacency."""
    topo = tree.topology() if isinstance(tree, Phylogeny) else tree
    n = topo.n_leaves
    ref = min(topo.labels)
    out = set()
    for u, v, _ in topo.edges:
        if u < n or v < n:
            continue
        # leaves reachable from v without crossing back through u
        seen = {u, v}
        stack = [v]
        side = set()
        while stack:
            x = stack.pop()
            if x < n:
                side.add(topo.labels[x])
            for y, _ in topo.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if ref in side:
            side = set(topo.labels) - side
        if 2 <= len(side) <= n - 2:
            out.add(frozenset(side))
    return frozenset(out)
