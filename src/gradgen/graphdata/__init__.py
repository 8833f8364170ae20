from .core import (
    DatasetSplit,
    Graph,
    OrderedLower,
    SizeDistribution,
    lower_edges,
    reconstruct,
    size_dist,
    split,
    to_lower,
)
from .generators import gen_community, gen_cycles, gen_grid, gen_lobster, make_community, make_lobster
from .io import ParseError, load_graphs, save_graphs
from .ordering import ORDERINGS, order_nodes

__all__ = [
    "DatasetSplit",
    "Graph",
    "OrderedLower",
    "ParseError",
    "SizeDistribution",
    "ORDERINGS",
    "gen_community",
    "gen_cycles",
    "gen_grid",
    "gen_lobster",
    "make_community",
    "make_lobster",
    "load_graphs",
    "lower_edges",
    "order_nodes",
    "reconstruct",
    "save_graphs",
    "size_dist",
    "split",
    "to_lower",
]
