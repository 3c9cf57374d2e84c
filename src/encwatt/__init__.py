"""encwatt: measure and model the energy demand of video-encoding runs.

The toolkit integrates background-subtracted power traces into net
encoding energies, repeats measurements under a Student-t stopping rule,
fits affine and QP-polynomial energy models under a relative-error
objective, cross-validates them, and estimates the energy of any preset
from a single ultrafast probe encode.
"""

__version__ = "0.1.0"

from .dataset import Dataset, DatasetRow, load_dataset_csv
from .energy import (
    ConfidencePolicy,
    MeasurementRecord,
    PowerTrace,
    confidence_check,
    integrate_energy,
    measure_until_confident,
    net_energy,
    t_critical,
)
from .errors import (
    AcquisitionError,
    CorruptCounterError,
    DatasetError,
    EncodeFailedError,
    EncwattError,
    FitError,
    FitRejectedError,
    InvalidMeasurementError,
    MalformedTraceError,
    ManifestError,
    MeasurementRunError,
    SingularFitError,
    TraceWindowError,
    UnderdeterminedFitError,
)
from .fitting import (
    FitReport,
    cross_validate,
    fit_linear_model,
    fit_qp_model,
    fit_report,
    kfold_split,
    mean_abs_relative_error,
    relative_error,
)
from .meter import (
    CounterMeter,
    CsvReplayMeter,
    Meter,
    SyntheticMeter,
    SyntheticRecipe,
    generate_synthetic_trace,
    open_meter,
    parse_trace_csv,
    sample_counter_file,
    write_trace_csv,
)
from .models import (
    PRESETS,
    LinearParams,
    QpModelParams,
    load_default_params,
    predict_energy_linear,
    predict_energy_qp,
    predict_time_qp,
)
from .runner import (
    EncodeJob,
    EncodeResult,
    load_manifest,
    run_campaign,
    run_encode,
    run_measured_encode,
)
from .synth import SynthDatasetRecipe, generate_dataset

__all__ = [name for name in dir() if not name.startswith("_")]
