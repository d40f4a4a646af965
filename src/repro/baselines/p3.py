"""P3-like system (Gandhi & Iyer, OSDI 2021; paper Table V row 2).

P3 ("Pipelined Push-Pull") trains on a cluster (4 nodes × 4 P100 in
Table V) and avoids moving input features entirely: features are
*dimension-partitioned* across machines, every machine computes a partial
first-layer aggregation/update over its feature slice for the whole
mini-batch, and the (much smaller) layer-1 activations are exchanged via
all-to-all — "push-pull" — with pipelining across micro-batches.

Cost mechanism reproduced here:

* no feature loading/transfer term at all (P3's headline win);
* a network term ``|V^1| × f^1 × S`` each way per batch (activations
  forward, activation gradients backward), over the shared per-node NIC;
* layer-1 compute is replicated across the feature dimension (each
  machine does ``1/num_nodes`` of the input dim for *all* batch
  vertices), deeper layers are data-parallel;
* model all-reduce crosses the network every iteration.

P3's published evaluation uses hidden dimension 32 (paper Table V) —
small activations are precisely what makes push-pull shine; the paper's
§VI-E2 notes P3 still pays inter-node communication that HyScale-GNN
avoids. Callers must pass a ``train_cfg`` with ``hidden_dim=32`` to
mirror the published configuration.
"""

from __future__ import annotations

from ..config import S_FEAT_BYTES, TrainingConfig
from ..errors import ConfigError
from ..graph.datasets import GraphDataset
from ..hw.cost_models import GPUKernelModel
from ..hw.topology import PlatformSpec, p3_node
from ..nn.models import model_size_bytes
from ..perfmodel.sampling_profile import (
    PYG_SAMPLE_RATE_EDGES_PER_S_PER_THREAD,
)
from .common import (
    BaselineReport,
    batch_stats_for,
    iterations_per_epoch,
    model_dims,
)

#: Sampler threads per node (single-socket E5-2690: 8 cores/16 threads).
SAMPLER_THREADS_PER_NODE = 16


class P3System:
    """Distributed push-pull (intra-layer model-parallel) GNN training."""

    name = "P3"

    def __init__(self, dataset: GraphDataset, train_cfg: TrainingConfig,
                 platform: PlatformSpec | None = None) -> None:
        self.dataset = dataset
        self.train_cfg = train_cfg
        self.platform = platform if platform is not None else p3_node()
        if self.platform.num_nodes < 2:
            raise ConfigError("P3 is a multi-node system")
        self._gpu_model = GPUKernelModel(self.platform.accelerator)
        self.dims = model_dims(dataset, train_cfg)

    # ------------------------------------------------------------------
    def iteration_time(self) -> tuple[float, dict[str, float]]:
        """Per-iteration time and stage breakdown."""
        plat = self.platform
        nodes = plat.num_nodes
        gpus_total = plat.num_accelerators * nodes
        mb = self.train_cfg.minibatch_size
        stats = batch_stats_for(self.dataset, self.train_cfg, mb)

        # Distributed CPU sampling (each node samples its GPUs' batches).
        edges_per_node = stats.total_edges * plat.num_accelerators
        t_sample = edges_per_node / (
            SAMPLER_THREADS_PER_NODE *
            PYG_SAMPLE_RATE_EDGES_PER_S_PER_THREAD)

        # Push-pull: layer-1 activations cross the network (both ways
        # over one epoch direction pair), per GPU batch; a node's GPUs
        # share its NIC.
        V1 = stats.num_nodes_per_layer[1]
        f1 = self.dims[1]
        act_bytes = V1 * f1 * S_FEAT_BYTES
        frac_remote = (nodes - 1) / nodes
        t_network = 2.0 * plat.network.transfer_time(
            act_bytes * frac_remote * plat.num_accelerators)

        # GPU compute: layer-1 partial over the full batch with 1/nodes
        # of the input dim (same MACs as the full layer divided across
        # machines, but *every* machine runs it), deeper layers normal.
        t_train = self._gpu_model.propagation(
            stats, self.dims, self.train_cfg.model).total_s

        # Model gradients all-reduce over the network.
        t_sync = 2.0 * model_size_bytes(
            self.dims, self.train_cfg.model) / plat.network.bandwidth

        # P3 pipelines micro-batches: network overlaps compute.
        t_iter = max(t_sample, t_network, t_train) + t_sync
        return t_iter, {
            "sample": t_sample, "network": t_network,
            "train": t_train, "sync": t_sync,
        }

    def report(self) -> BaselineReport:
        """One-epoch summary."""
        gpus_total = self.platform.num_accelerators * \
            self.platform.num_nodes
        t_iter, breakdown = self.iteration_time()
        iters = iterations_per_epoch(
            self.dataset, self.train_cfg.minibatch_size * gpus_total)
        return BaselineReport(
            system=self.name, dataset=self.dataset.name,
            model=self.train_cfg.model,
            epoch_time_s=iters * t_iter, iterations=iters,
            iteration_time_s=t_iter, stage_breakdown=breakdown)
