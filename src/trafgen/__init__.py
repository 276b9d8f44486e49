"""Terminal-airspace traffic modeling: learn deviation mixtures from flight
tracks and procedures, then generate synthetic trajectories and traffic scenes.
"""

from .errors import (ClassificationError, DataError, NumericalError,
                     SegmentationError, TrafgenError)
from .ingest import (AirspaceConfig, Flight, FlightClass, classify_flight,
                     enu_to_wgs84, flight_to_enu, parse_tracks, wgs84_to_enu)
from .mixture import (ConditionalMixture, EMFit, GaussianComponent,
                      MixtureModel, compress_model, condition, em_fit,
                      load_model, log_likelihood,
                      low_rank_approx, ppca_fit, sample, sample_many,
                      save_model, select_rank)
from .multi_model import (ArrivalRecord, PairwiseSample, SceneParams,
                          TrafficScene, assemble_scene_params, extract_pairs,
                          generate_scene, train_pairwise)
from .preprocess import (DeviationVector, build_deviation_vector,
                         dtw_distance, dtw_distances, pchip_resample,
                         reconstruct_trajectory, segment_trajectory)
from .procedures import (Procedure, ProceduralTrajectory, ProcedureKind,
                         build_procedural_trajectory, extract_nominal_paths,
                         load_procedures, save_procedures)
from .single_model import (SingleModelConfig, SingleTrajectoryModel,
                           SyntheticTrajectory, ProcedureSet, generate,
                           train)
from .metrics import (Histogram, SeparationConfig, SeparationReport,
                      VariableSamples, extract_variables, histogram_pair,
                      js_divergence, loss_of_separation_count,
                      silhouette_score, silhouette_sweep)

__version__ = "0.1.0"
