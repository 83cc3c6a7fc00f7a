"""Egocentric hand pipeline: pseudo-depth range segmentation, pinhole
lifting, pose metrics, sequence encoding, and a from-scratch transformer
action classifier with synthetic-scene experiment harnesses."""

__version__ = "0.1.0"
kernel_backend = "numpy"
