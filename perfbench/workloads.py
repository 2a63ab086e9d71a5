"""The benchmark's workloads: complete experiment configs, one per name.

Every config field is written out, so a later change to a parser default
(``dataset.sigma`` defaults to 0.5 in the parser but 2.0 everywhere else)
cannot change the data a workload trains on. ``--seed`` sets ``seeds: [seed]``,
which seeds the synthetic dataset, the domain stream and training alike.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from spec import BYOL, MOCO, SIMCLR

# The default class-IL 5-task experiment, field by field.
_BASE = {
    "scenario": "class_il",
    "num_tasks": 5,
    "seeds": [1],
    "dataset": {"classes": 10, "input_dim": 32, "samples_per_class": 200,
                "radius": 1.0, "sigma": 2.0},
    "model": {"encoder_dims": [32, 32, 8], "projector_dims": [8, 8],
              "predictor_dims": [8, 8]},
    "augment": {"noise_std": 0.5, "dropout_p": 0.3, "scale_range": [0.6, 1.4]},
    "train": {"epochs_per_task": 100, "batch_size": 64, "lr": 0.05,
              "momentum": 0.9, "weight_decay": 5.0e-3, "ema_momentum": 0.99,
              "queue_capacity": 1024},
    "loss": {"method": "simclr", "regime": "pnr", "tau": 0.2,
             "lambda_pnr": 0.0, "lambda_cassle": 25.0, "barlow_lambda": 0.005,
             "vicreg_sim": 25.0, "vicreg_var": 25.0, "vicreg_cov": 1.0},
    "probe": {"epochs": 500, "lr": 0.5, "l2_penalty": 1.0e-4,
              "train_fraction": 0.8},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    # The lowest A_T over seeds 1-10 at the commit that introduced the
    # benchmark. A pass fails its probe check below acc_reference * (1 -
    # the acc_final bound), so a change that breaks learning fails the run.
    acc_reference: float
    with_ft_refs: bool = True

    def config(self, seed: int, smoke: bool = False) -> dict:
        """The full config for one seed; ``smoke`` shrinks the run so the
        self-test finishes in seconds (same code paths, fewer epochs)."""
        cfg = copy.deepcopy(_BASE)
        for section, values in self.overrides.items():
            if isinstance(values, dict):
                cfg[section].update(values)
            else:
                cfg[section] = values
        cfg["seeds"] = [seed]
        if smoke:
            cfg["train"]["epochs_per_task"] = 1
            cfg["probe"]["epochs"] = 5
        return cfg


WORKLOADS = {w.name: w for w in [
    Workload(
        SIMCLR,
        "the paper's headline config (25 epochs a task, not 100, so a run "
        "holds 8 passes); a small step, so per-call overhead rules",
        overrides={"train": {"epochs_per_task": 25}},
        acc_reference=0.795,
    ),
    Workload(
        MOCO,
        "MoCo-PNR with the default 1024-row queues: a 64x2304 logits matrix "
        "per term, so the contrastive pool and the queue dominate",
        overrides={"loss": {"method": "moco"},
                   "train": {"epochs_per_task": 10}},
        acc_reference=0.6625,
    ),
    Workload(
        BYOL,
        "BYOL-PNR on domain-IL over a 1 MB dataset: no pool or queue, short "
        "training, so probing, dataset I/O and checksums dominate",
        overrides={"scenario": "domain_il", "num_tasks": 3,
                   "dataset": {"samples_per_class": 400},
                   "train": {"epochs_per_task": 4},
                   "loss": {"method": "byol", "lambda_pnr": 0.5}},
        acc_reference=0.3646,
    ),
]}
