"""Pre-keyed secure clustering for sensor fields.

Offline key pre-distribution assigns every sensor a rank and a ring of
symmetric keys; a round-synchronous protocol then forms clusters whose
dominators make up a weakly connected dominating set of the radio graph.
Greedy connected-dominating-set baselines and closed-form storage and
connectivity curves sit alongside for comparison.

The modules are the API (``wcds.graph``, ``wcds.wire``, ``wcds.keys``,
``wcds.protocol``, ``wcds.sim``, ``wcds.baselines``, ``wcds.analysis``,
``wcds.cli``); the package root re-exports nothing.
"""

__version__ = "0.1.0"
