import datetime as dt
import json

import numpy as np
import pytest

from pollencast.data import SeasonDefinition, emit_csv, label_years
from pollencast.errors import InvalidRecordError
from pollencast.synth import GeneratorProfile, generate_synthetic


class TestDeterminism:
    def test_equal_datasets(self):
        a = generate_synthetic(seed=7, years=2)
        b = generate_synthetic(seed=7, years=2)
        assert a == b
        assert np.array_equal(a.series_matrix(), b.series_matrix())

    def test_identical_csv_bytes(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_csv(generate_synthetic(seed=7, years=2), str(p1))
        emit_csv(generate_synthetic(seed=7, years=2), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        a = generate_synthetic(seed=1, years=1)
        b = generate_synthetic(seed=2, years=1)
        assert a != b


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_pollen_non_negative(self, seed):
        data = generate_synthetic(seed=seed, years=2)
        assert (data.pollen() >= 0).all()

    def test_temperature_ordering(self):
        m = generate_synthetic(seed=5, years=2).series_matrix()
        tmax, tmin, tavg = m[:, 1], m[:, 2], m[:, 3]
        assert (tmin <= tavg).all() and (tavg <= tmax).all()

    def test_calendar_span(self):
        data = generate_synthetic(seed=5, years=3)
        assert data.span == (dt.date(2003, 1, 1), dt.date(2005, 12, 31))
        assert data.years() == (2003, 2004, 2005)

    def test_years_validation(self):
        with pytest.raises(InvalidRecordError):
            generate_synthetic(seed=5, years=0)


class TestRealism:
    def test_seed42_start_spread_in_band(self, seed42_dataset, season_def):
        labels = label_years(seed42_dataset, season_def)
        starts = [lab.start_day for lab in labels.values() if lab.present]
        assert 5.0 <= np.std(starts, ddof=1) <= 30.0

    def test_seasons_mostly_present(self, seed42_labels):
        present = sum(1 for lab in seed42_labels.values() if lab.present)
        assert present >= 15

    def test_warm_springs_start_earlier(self, seed42_dataset, season_def):
        # The onset is driven by accumulated warmth, so spring temperature
        # must carry signal about the start day.
        labels = label_years(seed42_dataset, season_def)
        m = seed42_dataset.series_matrix()
        warmth, starts = [], []
        for year, lab in labels.items():
            if not lab.present:
                continue
            i0 = seed42_dataset.index_of(dt.date(year, 1, 1))
            warmth.append(m[i0 : i0 + 90, 3].mean())
            starts.append(lab.start_day)
        r = np.corrcoef(warmth, starts)[0, 1]
        assert r < -0.3

    def test_rain_washes_pollen_down(self):
        # Within the bump, rainy days should on average carry less pollen.
        data = generate_synthetic(seed=11, years=6)
        m = data.series_matrix()
        pollen, precip = m[:, 0], m[:, 4]
        active = pollen > 30.0
        rainy = active & (precip > 2.0)
        dry = active & (precip == 0.0)
        assert rainy.sum() > 20 and dry.sum() > 20
        assert pollen[rainy].mean() < pollen[dry].mean()


class TestGeneratorProfile:
    def test_json_round_trip(self, tmp_path):
        profile = GeneratorProfile(start_year=1990, peak_mean=800.0)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"start_year": 1990, "peak_mean": 800.0}))
        loaded = GeneratorProfile.from_json(str(path))
        assert loaded == profile

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"peak_meen": 800.0}))
        with pytest.raises(InvalidRecordError):
            GeneratorProfile.from_json(str(path))

    def test_profile_changes_output(self):
        base = generate_synthetic(seed=3, years=1)
        hot = generate_synthetic(
            seed=3, years=1, profile=GeneratorProfile(tavg_mean=16.0)
        )
        assert base != hot

    def test_validation(self):
        with pytest.raises(InvalidRecordError):
            GeneratorProfile(soil_alpha=0.0)
        with pytest.raises(InvalidRecordError):
            GeneratorProfile(rise_width=-1.0)
