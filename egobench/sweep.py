"""Workload ``sweep``: the paper's threshold sweep and its two ablations.

One scene bank is built on the acceptance sweep's band layout (band midpoint
t = 0.47). A round runs ``sweep_threshold`` in train and infer mode over five
thresholds for each noise seed, then ``ablation_masking`` and
``ablation_desharpen`` once per noise seed. The mask path (range mask, mask
quality, box blur) does nearly all the work; the network does none.

The checks do not trust the program's mask code: the benchmark counts every
scene's kept-background and lost-arm fractions itself from ``scene.norm`` and
``scene.gt``, blurs masks with scipy, and compares every reported MPJPE with
the simulated estimator's analytic expectation 2*sqrt(2/pi)*sigma.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import uniform_filter

from egohand import experiments
from egohand.synth import SynthParams

T_LIST = (0.35, 0.39, 0.43, 0.47, 0.51)
JOINTS = 21
CHI3_MEAN = 2.0 * math.sqrt(2.0 / math.pi)  # E|z| for z ~ N(0, I_3)
CHI3_VAR = 3.0 - 8.0 / math.pi  # Var|z|
TOLERANCE_SD = 6.0
RADIUS = 2  # de-sharpening blur radius, as in the acceptance test


class Sweep:
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str, scenes: int = 48, noise_seeds: int = 2):
        self.params = SynthParams(arm_band=(0.485, 0.99), background_band=(0.05, 0.455))
        self.seed = seed
        self.n_scenes = scenes
        self.noise_seeds = [seed * noise_seeds + i for i in range(noise_seeds)]
        self.scenes = None
        self.reference = None
        self.rounds_differing = 0

    def setup(self) -> None:
        self.scenes = None  # free the previous bank before building the next
        self.scenes = experiments.make_eval_scenes(self.params, self.seed, self.n_scenes)

    def round(self):
        """Yield (stage, items, operation); stage 1 sweeps, 2 masking, 3 de-sharpening."""
        p, scenes, out = self.params, self.scenes, {}
        n = len(scenes)
        for k in self.noise_seeds:
            for mode in ("train", "infer"):
                def sweep(mode=mode, k=k):
                    out[(mode, k)] = experiments.sweep_threshold(p, list(T_LIST), mode, k, scenes)
                yield 1, len(T_LIST) * n, sweep

            def masking(k=k):
                out[("masking", k)] = experiments.ablation_masking(p, [k], scenes)
            yield 2, 2 * n, masking

            def desharpen(k=k):
                out[("desharpen", k)] = experiments.ablation_desharpen(p, RADIUS, [k], scenes)
            yield 3, 2 * n, desharpen
        if self.reference is None:
            self.reference = out
        elif out != self.reference:
            self.rounds_differing += 1

    def summary(self) -> dict:
        out = {}
        for (kind, k), result in (self.reference or {}).items():
            if kind in ("train", "infer"):
                out[f"{kind}_{k}_best_t"] = min(result, key=lambda r: r[3])[0]
            else:
                out[f"{kind}_{k}_mm"] = [round(v, 3) for v in result[0]]
        return out

    # --- independent checks -------------------------------------------------------

    def _sigma(self, f_bg, f_loss):
        p = self.params
        return p.noise_sigma0 + p.noise_clutter_gain * f_bg + p.noise_loss_gain * f_loss

    def _expected(self, sigmas):
        """(mean, sd) of MPJPE (left, right, both) for per-scene noise sigmas."""
        sides = []
        for side in ("left", "right"):
            s = np.array([sig for sig, sc in zip(sigmas, self.scenes) if getattr(sc, side).present])
            mean = CHI3_MEAN * s.mean()
            var = CHI3_VAR * float((s * s).sum()) / JOINTS / len(s) ** 2
            sides.append((mean, var))
        (ml, vl), (mr, vr) = sides
        return ((ml, math.sqrt(vl)), (mr, math.sqrt(vr)), ((ml + mr) / 2, math.sqrt(vl + vr) / 2))

    @staticmethod
    def _fractions(weights, arm):
        """(kept background, lost arm) for soft or binary keep-weights."""
        bg = ~arm
        f_bg = float(weights[bg].sum() / bg.sum()) if bg.any() else 0.0
        f_loss = float((1.0 - weights[arm]).sum() / arm.sum()) if arm.any() else 0.0
        return f_bg, f_loss

    def _box_average(self, mask):
        size = 2 * RADIUS + 1
        return uniform_filter(mask, size, mode="constant") / uniform_filter(np.ones_like(mask), size, mode="constant")

    def check(self) -> list[str]:
        if self.reference is None:
            return ["no round completed"]
        problems = []
        if self.rounds_differing:
            problems.append(f"{self.rounds_differing} rounds gave other results than the first")
        t_mid = self.params.band_midpoint
        frac = {t: [] for t in (*T_LIST, t_mid)}
        blur_frac = []
        for sc in self.scenes:
            arm = sc.gt.values != 0.0
            for t in frac:
                frac[t].append(self._fractions((sc.norm.values >= t).astype(np.float64), arm))
            mid = (sc.norm.values >= t_mid).astype(np.float64)
            blur_frac.append(self._fractions(self._box_average(mid), arm))

        def expect(label, observed, fractions, damping=1.0):
            sigmas = [self._sigma(damping * fb, damping * fl) for fb, fl in fractions]
            for name, value, (mean, sd) in zip(("left", "right", "both"), observed, self._expected(sigmas)):
                if not abs(value - mean) <= TOLERANCE_SD * sd:
                    problems.append(f"{label} {name}: {value:.4f} mm, expected {mean:.4f} +- {sd:.4f}")

        for (kind, k), result in self.reference.items():
            if kind in ("train", "infer"):
                damping = self.params.infer_damping if kind == "infer" else 1.0
                if [r[0] for r in result] != list(T_LIST):
                    problems.append(f"{kind} sweep seed {k}: thresholds {[r[0] for r in result]}")
                    continue
                for t, *observed in result:
                    expect(f"{kind} sweep seed {k} t={t}", observed, frac[t], damping)
            elif kind == "masking":
                (masked, unmasked), = result
                _, _, (m_exp, m_sd) = self._expected([self._sigma(*f) for f in frac[t_mid]])
                _, _, (u_exp, u_sd) = self._expected([self._sigma(1.0, 0.0)] * len(self.scenes))
                if not abs(masked - m_exp) <= TOLERANCE_SD * m_sd:
                    problems.append(f"masked arm seed {k}: {masked:.4f}, expected {m_exp:.4f}")
                if not abs(unmasked - u_exp) <= TOLERANCE_SD * u_sd:
                    problems.append(f"unmasked arm seed {k}: {unmasked:.4f}, expected {u_exp:.4f}")
                if not masked < unmasked:
                    problems.append(f"seed {k}: masked {masked:.4f} does not beat unmasked {unmasked:.4f}")
            else:
                (sharp, blurred), = result
                for label, value, fractions in (("sharp", sharp, frac[t_mid]), ("blurred", blurred, blur_frac)):
                    _, _, (mean, sd) = self._expected([self._sigma(*f) for f in fractions])
                    if not abs(value - mean) <= TOLERANCE_SD * sd:
                        problems.append(f"de-sharpen {label} seed {k}: {value:.4f}, expected {mean:.4f}")
        return problems
