"""Pre-keyed secure clustering for sensor fields.

Offline key pre-distribution assigns every sensor a rank and a ring of
symmetric keys; a round-synchronous protocol then forms clusters whose
dominators make up a weakly connected dominating set of the radio graph.
Greedy connected-dominating-set baselines and closed-form storage and
connectivity curves sit alongside for comparison.
"""

from .graph import (
    EXHAUSTIVE_LIMIT,
    Graph,
    InfeasibleError,
    SizeLimitError,
    brute_min_ds,
    from_edges,
    gen_udg,
    induced_subgraph,
    is_cds,
    is_connected,
    is_dominating,
    is_wcds,
    radius_for_expected_degree,
    read_graph,
    unit_disk_graph,
    write_graph,
)
from .wire import FLOOD_KINDS, MessageKind
from .keys import (
    ALLOWED_KEY_BITS,
    AuthenticationFailure,
    Ciphertext,
    Key,
    KeyMaterial,
    KeyRing,
    MalformedCiphertext,
    Rank,
    StorageReport,
    can_decrypt,
    decrypt,
    encrypt,
    group_sizes_for,
    provision,
    rekey_group,
    storage_bits,
    uniform_storage_bits,
)
from .protocol import (
    APPROVAL_TIMEOUT,
    BS_ID,
    BSState,
    ClusterOutcome,
    Envelope,
    MATCH_WINDOW,
    NodeState,
    Phase,
    bs_step,
    gd_step,
    os_step,
)
from .sim import (
    PlacementModel,
    RunConfig,
    VerifyReport,
    World,
    assemble_outcome,
    deploy,
    form_deployment,
    inject_adversary,
    late_join,
    leave,
    make_world,
    run,
    simulate,
    step,
    verify_outcome,
)
from .analysis import (
    CompareReport,
    CsvRow,
    CurvePoint,
    compare_ds_sizes,
    distinct_key_curve,
    er_degree_curve,
    er_threshold_p,
    expected_gd_degree,
    gd_storage_curve,
    ideal_ds_size,
    read_csv,
    write_csv,
)

__version__ = "0.1.0"
