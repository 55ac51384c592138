"""Maps computed and written in bounded blocks of lattice rows.

`cli map-conv` and `map-irs` compute a map block by block and write each
block's text in sub-blocks of whole rows.  Whatever the block and
sub-block sizes, their bytes must equal `map_to_csv` of the whole map and
a row join written out here with `format_value`, points on a transmitter
must give one warning per map, and a fine map must not hold the whole
lattice in memory.
"""

import tracemalloc
import warnings

import pytest

from irs_planner import coverage, load_scenario, map_to_csv
from irs_planner.coverage import format_value
from irs_planner.cli import run

# 16 x 12 points: 1.5 m divides neither 23 m nor 17 m
CELL = """\
micro_origin_x = 3.5
micro_origin_y = 2
micro_width = 23
micro_depth = 17
irs_x = 10
irs_y = 8
irs_z = 6
grid_resolution = 1.5
"""
STATION = "micro_bs_x = 20\nmicro_bs_y = 10\nmicro_bs_z = 5\n"
NX = 16
# the tilted panel faces the station; points with x below about 10 m lie behind it
CONFIGS = {"fixed": CELL + STATION, "geometric": CELL + STATION + "irs_normal = 1,0.3,-0.2\n"}
# the station and the macro interferer on lattice points (4, 3) and (3, 9)
ON_LATTICE = CELL + """\
micro_bs_x = 9.5
micro_bs_y = 6.5
micro_bs_z = 1.5
macro_bs_x = 8
macro_bs_y = 15.5
macro_bs_z = 1.5
"""
CHUNKS = {
    "one point": 1,
    "a row less one": NX - 1,
    "one row": NX,
    "a row and one": NX + 1,
    "default": 1 << 15,
}
MAPS = {"map-conv": coverage.sinr_map_conventional, "map-irs": coverage.sinr_map_irs}


def _config(tmp_path, text):
    path = tmp_path / "cell.conf"
    path.write_text(text)
    return str(path)


def _cli_bytes(tmp_path, argv):
    out = tmp_path / "map.csv"
    assert run(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def _written_out(sinr_map):
    """The map's CSV as the README defines it, one format_value per field."""
    extent, res = sinr_map.extent, sinr_map.resolution
    rows = [
        f"{format_value(extent.origin_x + i * res)},{format_value(extent.origin_y + j * res)},"
        f"{format_value(sinr_map.value_at(i, j))}\n"
        for j in range(sinr_map.ny)
        for i in range(sinr_map.nx)
    ]
    return "x_m,y_m,sinr_db\n" + "".join(rows)


@pytest.mark.parametrize("chunk", sorted(CHUNKS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("command", sorted(MAPS))
def test_cli_bytes_do_not_depend_on_the_block_size(command, config, chunk, tmp_path, monkeypatch):
    path = _config(tmp_path, CONFIGS[config])
    scenario = load_scenario(path)
    whole = MAPS[command](scenario)
    assert (whole.nx, whole.ny) == (NX, 12)
    expected = _written_out(whole)
    if command == "map-irs" and config == "geometric":
        assert 0 < expected.count(",-inf\n") < NX * 12

    monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", CHUNKS[chunk])
    # every text sub-block size, so that blocks are also split into several
    for text in CHUNKS.values():
        monkeypatch.setattr(coverage, "_TEXT_ELEMENTS", text)
        assert map_to_csv(MAPS[command](scenario)) == expected
        assert _cli_bytes(tmp_path, [command, "--config", path]) == expected.encode("utf-8")


@pytest.mark.parametrize("command", sorted(MAPS))
def test_out_file_matches_stdout(command, tmp_path, capsys):
    path = _config(tmp_path, CONFIGS["geometric"])
    written = _cli_bytes(tmp_path, [command, "--config", path])
    capsys.readouterr()
    assert run([command, "--config", path]) == 0
    assert capsys.readouterr().out.encode("utf-8") == written


@pytest.mark.parametrize("chunk", [1, NX, 1 << 15])
def test_points_on_transmitters_give_one_warning_per_map(chunk, tmp_path, monkeypatch):
    path = _config(tmp_path, ON_LATTICE)
    monkeypatch.setattr(coverage, "_CHUNK_ELEMENTS", chunk)
    scenario = load_scenario(path)
    for call in (
        lambda: coverage.sinr_map_conventional(scenario),
        lambda: _cli_bytes(tmp_path, ["map-conv", "--config", path]),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(messages) == 1
        assert messages[0].startswith("2 grid point(s) coincide with a transmitter")


@pytest.mark.parametrize(
    "argv",
    [
        ["map-irs", "--bs", "100,100,5", "--irs", "100,100,5"],
        ["map-conv", "--resolution", "500"],
        ["map-irs", "--resolution", "500"],
    ],
    ids=["panel on station", "conv coarser than cell", "irs coarser than cell"],
)
def test_failed_map_creates_no_file(argv, tmp_path, capsys):
    out = tmp_path / "map.csv"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_fine_map_memory_does_not_grow_with_the_lattice(tmp_path):
    # 160,801 points: about 25 MiB when the map and its text are held whole
    out = tmp_path / "fine.csv"
    tracemalloc.start()
    try:
        assert run(["map-irs", "--resolution", "0.5", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes().count(b"\n") == 1 + 401 * 401
    assert peak < 8 * 2**20
