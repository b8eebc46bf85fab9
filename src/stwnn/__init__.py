"""WiFi CSI activity recognition: synthetic channel data, multi-scale 3-D
volumes, a 3-D residual network with feature self-attention, and training,
evaluation and persistence tools."""

from .autodiff import Tensor, backward, grad_check
from .csi import (ActivitySpec, CsiStream, MotionComponent, amplitude,
                  doppler_activity_spec, synth_stream)
from .dataio import (DatasetManifest, ManifestEntry, load_manifest, load_stream,
                     load_volumes, load_weights, save_stream, save_volumes, save_weights,
                     write_manifest)
from .network import (Dense, Model, NetworkConfig, attention_forward, build_model, forward,
                      parameter_count, residual_block_forward)
from .training import (EpochStats, Metrics, TrainConfig, combined_loss,
                       confusion_metrics, evaluate, masked_probs, one_hot,
                       predict, shift_consistency, train)
from .volumes import (SegmentationConfig, Volume3D, group_by_segment, normalize,
                      segment_stream, segment_volumes, stack_channels, stream_volumes,
                      upsample)

__version__ = "0.1.0"
