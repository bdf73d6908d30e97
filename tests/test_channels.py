"""Channel-configuration tests (§4.3.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channels import ChannelConfig


def test_paper_parameters():
    ch = ChannelConfig()
    assert ch.step_ns == 4000  # 4 us channel pitch
    # D_target^i = 4i us, D_limit^i = 4i + 2.4 us (paper §4.3.2)
    for i in (1, 3, 8):
        assert ch.target_offset_ns(i) == 4000 * i
        assert ch.limit_offset_ns(i) == 4000 * i + 2400


def test_absolute_thresholds_include_base_rtt():
    ch = ChannelConfig()
    assert ch.target_ns(2, 12_000) == 12_000 + 8_000
    assert ch.limit_ns(2, 12_000) == 12_000 + 8_000 + 2_400


def test_ordering_invariant_holds_for_paper_config():
    ChannelConfig(n_priorities=12).validate()


def test_out_of_range_priority_rejected():
    ch = ChannelConfig(n_priorities=4)
    with pytest.raises(ValueError):
        ch.target_offset_ns(5)
    with pytest.raises(ValueError):
        ch.target_offset_ns(-1)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ChannelConfig(fluctuation_ns=0)
    with pytest.raises(ValueError):
        ChannelConfig(noise_ns=-1)
    with pytest.raises(ValueError):
        ChannelConfig(n_priorities=0)


@given(
    st.integers(min_value=10, max_value=1_000_000),
    st.integers(min_value=0, max_value=1_000_000),
    st.integers(min_value=1, max_value=32),
)
@settings(max_examples=100, deadline=None)
def test_property_channels_never_overlap(a, b, n):
    """D_limit^{i-1} < D_target^i < D_limit^i for any valid (A, B, n)."""
    ch = ChannelConfig(fluctuation_ns=a, noise_ns=b, n_priorities=n)
    ch.validate()
    for i in range(1, n + 1):
        assert ch.target_offset_ns(i) < ch.limit_offset_ns(i)
        if i > 1:
            assert ch.limit_offset_ns(i - 1) < ch.target_offset_ns(i)


@given(st.integers(min_value=1, max_value=16))
@settings(max_examples=30, deadline=None)
def test_property_higher_priority_larger_thresholds(i):
    ch = ChannelConfig(n_priorities=17)
    assert ch.target_offset_ns(i + 1) > ch.target_offset_ns(i)
    assert ch.limit_offset_ns(i + 1) > ch.limit_offset_ns(i)


# ----------------------------------------------------------------------
# explicit bands (the representation repro.tune searches over)
# ----------------------------------------------------------------------
def test_bands_roundtrip_reproduces_uniform_placement():
    uniform = ChannelConfig(n_priorities=5)
    banded = ChannelConfig.from_bands(uniform.bands())
    assert banded.target_offset_ns(0) == uniform.target_offset_ns(0) == 0
    for i in range(1, 6):
        assert banded.target_offset_ns(i) == uniform.target_offset_ns(i)
        assert banded.limit_offset_ns(i) == uniform.limit_offset_ns(i)
    assert banded.n_priorities == 5


def test_band_step_ns_is_the_minimum_gap():
    ch = ChannelConfig.from_bands([(4000, 6400), (8000, 10400), (11000, 13000)])
    assert ch.step_ns == 600  # 11000 - 10400, the tightest inter-channel gap
    assert ChannelConfig.from_bands([(500, 900)]).step_ns == 500


def test_band_validation_errors_name_offending_priorities():
    with pytest.raises(ValueError, match="priority 1 target offset"):
        ChannelConfig.from_bands([(0, 1000)])
    with pytest.raises(ValueError, match="overlap between priorities 1 and 2"):
        ChannelConfig.from_bands([(1000, 2000), (1500, 3000)])
    with pytest.raises(ValueError, match="degenerate channel at priority 2"):
        ChannelConfig.from_bands([(1000, 2000), (3000, 3000)])
    with pytest.raises(ValueError, match="must be a \\(target_offset_ns"):
        ChannelConfig.from_bands([(1000,)])
    with pytest.raises(ValueError, match="at least one priority band"):
        ChannelConfig.from_bands([])
    with pytest.raises(ValueError, match="contradicts"):
        ChannelConfig(n_priorities=3, bands=[(1000, 2000)])


@given(
    gaps=st.lists(st.integers(1, 10_000), min_size=1, max_size=8),
    widths=st.lists(st.integers(1, 10_000), min_size=8, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_property_any_positive_gaps_and_widths_form_valid_bands(gaps, widths):
    bands, limit = [], 0
    for gap, width in zip(gaps, widths):
        target = limit + gap
        limit = target + width
        bands.append((target, limit))
    ch = ChannelConfig.from_bands(bands)
    ch.validate()
    assert ch.bands() == bands
