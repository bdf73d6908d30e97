"""Delay-measurement noise models."""

from .delay_noise import CompositeNoise, LognormalNoise, UniformNoise, paper_noise

__all__ = ["LognormalNoise", "UniformNoise", "CompositeNoise", "paper_noise"]
