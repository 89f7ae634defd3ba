"""Do only the set-up a bubblelab run pays before its first row, then exit.

    python3 perfbench/setup_child.py CONFIG.json

Imports the CLI (and with it every solver module), loads the config, builds
the bubble, resolves the contrast and the regime, and builds the geometry
plus the comparator mesh or voxel grid.
"""

import json
import sys


def main(config_path):
    import bubblelab.cli  # noqa: F401  (the real CLI imports every layer)
    from bubblelab import harness, materials, volmedium

    with open(config_path) as fh:
        cfg = harness.ExperimentConfig.from_json(json.load(fh))
    bubble = harness.build_bubble(cfg.bubble)
    params, mode = harness.build_contrast(cfg.contrast)
    if mode[0] == "ratio":
        params = materials.omega_at_ratio(bubble, params, mode[1])
    report = materials.classify_regime(params)
    if mode[0] == "gap":
        materials.omega_at_gap(bubble, params, cfg.a_sequence[0])
    geometry = harness.build_geometry(cfg.geometry)
    harness.build_density(cfg.geometry.get("density"))
    if cfg.is_surface or report.regime == "High":
        harness.comparator_mesh(cfg)
    elif report.regime != "Low":
        volmedium.VoxelGrid.cover(geometry, int(cfg.tolerances.get("grid_n", 24)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
