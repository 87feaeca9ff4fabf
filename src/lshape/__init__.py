"""Uniformity norms, configuration counting and density increments on
pair spaces over small prime moduli.

The pattern of interest is the four-point configuration

    (x, y), (x, y + z), (x, y + 2z), (x + z, y)

inside Z_p^n x Z_p^n.  The package provides character sums and the
inverse second-order argument (``spectral``), the full uniformity norm
hierarchy with slot norms adapted to the configuration (``norms``),
exact counting and obstruction constructions (``patterns``), complexity
certificates for linear form systems (``linforms``), fibered structured
sets (``structured``) and the partition energy / density increment
machinery (``increment``).  ``lshape`` on the command line fronts all
of it with deterministic JSON reports.

Two representations run through every module.  A set is a
``FunctionTable`` of kind "indicator" (bool values), which carries its
exact cardinality and its density.  A group element is its digit array
or its canonical index; ``field.digits_of`` and ``field.index_of``
convert between them.

Every public name is reached from the command line or from another
module of the package; the set and table writers are kept as the
counterparts of the readers the command line uses.  Slow literal
definitions and checks that only the test suite runs (fiber levels,
directional averages, the energy monotonicity and transfer checks, the
auxiliary linear-form systems) live in ``tests/references.py``.
"""

from .field import (
    AffineSubspace,
    ResourceLimitError,
    modular_rref,
    subspace_from_normals,
)
from .tables import (
    FunctionTable,
    load_any,
    load_set,
    load_table,
    product_lift,
    save_set,
    save_table,
)
from .spectral import (
    dft,
    dft_reference,
    idft,
    inverse_u2,
    parseval_report,
    subspace_average_bound_check,
    u2_fourth,
)
from .norms import (
    NormValue,
    box_norm,
    gcs_check,
    gowers_norm,
    slot_norm,
)
from .patterns import (
    ObstructionExample,
    PatternCount,
    corner_average,
    count_system,
    lshape_average,
    obstruction_example,
    telescope_check,
)
from .linforms import (
    ComplexityCertificate,
    LinearFormSystem,
    cs_complexity,
    lshape_slot_system,
    von_neumann_check,
)
from .structured import (
    FiberFamily,
    StructuredProductSet,
    random_family,
)
from .increment import (
    ProductCosetPartition,
    align_offset_increment,
    fiber_mean_increment,
    increment_driver,
    partition_energy,
    planted_row_instance,
    planted_skew_instance,
    pseudorandomize_u2,
    search_extremal_L_free,
    skew_line_increment,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace",
    "ResourceLimitError",
    "modular_rref",
    "subspace_from_normals",
    "FunctionTable",
    "load_any",
    "load_set",
    "load_table",
    "product_lift",
    "save_set",
    "save_table",
    "dft",
    "dft_reference",
    "idft",
    "inverse_u2",
    "parseval_report",
    "subspace_average_bound_check",
    "u2_fourth",
    "NormValue",
    "box_norm",
    "gcs_check",
    "gowers_norm",
    "slot_norm",
    "ObstructionExample",
    "PatternCount",
    "corner_average",
    "count_system",
    "lshape_average",
    "obstruction_example",
    "telescope_check",
    "ComplexityCertificate",
    "LinearFormSystem",
    "cs_complexity",
    "lshape_slot_system",
    "von_neumann_check",
    "FiberFamily",
    "StructuredProductSet",
    "random_family",
    "ProductCosetPartition",
    "align_offset_increment",
    "fiber_mean_increment",
    "increment_driver",
    "partition_energy",
    "planted_row_instance",
    "planted_skew_instance",
    "pseudorandomize_u2",
    "search_extremal_L_free",
    "skew_line_increment",
    "__version__",
]
