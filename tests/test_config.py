"""SystemConfig validation and derived geometry."""

import pytest

from repro.config import (
    BARRIER_LATENCY,
    CACHE_CTRL_CYCLES,
    CACHE_HISTORY_ENTRIES,
    CACHE_HIT_CYCLES,
    DIR_CTRL_CYCLES,
    INJECT_CYCLES,
    INJECT_DATA_CYCLES,
    KB,
    LOCAL_LATENCY,
    MB,
    SI_FLUSH_CYCLES_PER_BLOCK,
    Consistency,
    IdentifyScheme,
    SIMechanism,
    SystemConfig,
)
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_are_the_paper_machine(self):
        config = SystemConfig()
        assert config.n_processors == 32
        assert config.cache_size == 256 * KB
        assert config.cache_assoc == 4
        assert config.block_size == 32
        assert config.network_latency == 100
        assert config.write_buffer_entries == 16
        assert config.version_bits == 4
        assert config.read_counter_bits == 2
        assert config.fifo_entries == 64
        # The timings the paper fixes (§5.1) are module constants.
        assert CACHE_CTRL_CYCLES == 3
        assert DIR_CTRL_CYCLES == 10
        assert INJECT_CYCLES == 3
        assert INJECT_DATA_CYCLES == 8
        assert LOCAL_LATENCY == 1
        assert BARRIER_LATENCY == 100
        assert CACHE_HIT_CYCLES == 1
        assert SI_FLUSH_CYCLES_PER_BLOCK == 3
        assert CACHE_HISTORY_ENTRIES == 1024

    def test_block_size_power_of_two(self):
        with pytest.raises(ConfigError):
            SystemConfig(block_size=48)

    def test_cache_size_multiple_of_row(self):
        with pytest.raises(ConfigError):
            SystemConfig(cache_size=1000)

    def test_tearoff_requires_wc(self):
        with pytest.raises(ConfigError, match="tear-off"):
            SystemConfig(tearoff=True, identify=IdentifyScheme.VERSION)

    def test_tearoff_requires_dsi(self):
        with pytest.raises(ConfigError):
            SystemConfig(tearoff=True, consistency=Consistency.WC)

    def test_tearoff_valid_combination(self):
        config = SystemConfig(
            tearoff=True, consistency=Consistency.WC, identify=IdentifyScheme.VERSION
        )
        assert config.tearoff

    def test_version_bits_bounds(self):
        with pytest.raises(ConfigError):
            SystemConfig(version_bits=0)
        with pytest.raises(ConfigError):
            SystemConfig(version_bits=17)

    def test_n_processors_positive(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_processors=0)

    def test_write_buffer_positive(self):
        with pytest.raises(ConfigError):
            SystemConfig(write_buffer_entries=0)

    @pytest.mark.parametrize("field", ["network_latency", "max_events"])
    def test_negative_timing_refused(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be >= 0$"):
            SystemConfig(**{field: -3})
        assert getattr(SystemConfig(**{field: 0}), field) == 0


class TestDerived:
    def test_geometry(self):
        config = SystemConfig(cache_size=16 * KB, cache_assoc=4, block_size=32)
        assert config.n_blocks == 512
        assert config.n_sets == 128
        assert config.block_shift == 5

    def test_masks(self):
        config = SystemConfig(version_bits=4, read_counter_bits=2)
        assert config.version_mask == 0xF
        assert config.read_counter_mask == 0x3

    def test_dsi_enabled(self):
        assert not SystemConfig().dsi_enabled
        assert SystemConfig(identify=IdentifyScheme.STATES).dsi_enabled
        assert SystemConfig(identify=IdentifyScheme.VERSION).dsi_enabled

    def test_with_returns_modified_copy(self):
        base = SystemConfig()
        slow = base.with_(network_latency=1000)
        assert slow.network_latency == 1000
        assert base.network_latency == 100

    def test_with_revalidates(self):
        base = SystemConfig()
        with pytest.raises(ConfigError):
            base.with_(tearoff=True)

    def test_mb_constant(self):
        assert MB == 1024 * KB


class TestDescribe:
    def test_base_labels(self):
        assert SystemConfig().describe() == "SC"
        assert SystemConfig(consistency=Consistency.WC).describe() == "WC"

    def test_dsi_labels(self):
        assert SystemConfig(identify=IdentifyScheme.STATES).describe() == "SC+DSI(S)"
        assert SystemConfig(identify=IdentifyScheme.VERSION).describe() == "SC+DSI(V)"

    def test_fifo_label(self):
        config = SystemConfig(identify=IdentifyScheme.VERSION, si_mechanism=SIMechanism.FIFO)
        assert config.describe() == "SC+DSI(V)+FIFO64"

    def test_tearoff_label(self):
        config = SystemConfig(
            consistency=Consistency.WC, identify=IdentifyScheme.VERSION, tearoff=True
        )
        assert config.describe() == "WC+DSI(V)+TO"
