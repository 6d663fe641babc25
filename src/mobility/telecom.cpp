#include "mobility/telecom.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mach::mobility {

namespace {

/// Proleptic-Gregorian day number (valid for years >= 1).
std::int64_t day_number(int year, int month, int day) {
  // Howard Hinnant's days_from_civil.
  year -= month <= 2;
  const int era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 +
                            day - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<std::int64_t>(era) * 146097 + static_cast<std::int64_t>(doe) -
         719468;  // days since 1970-01-01
}

void civil_from_days(std::int64_t z, int& year, int& month, int& day) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const auto doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  month = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  year = static_cast<int>(y + (month <= 2));
}

}  // namespace

std::int64_t parse_telecom_timestamp(const std::string& text) {
  int year = 0, month = 0, day = 0, hour = 0, minute = 0, second = 0;
  int consumed = -1;
  if (std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%d%n", &year, &month, &day,
                  &hour, &minute, &second, &consumed) != 6 ||
      static_cast<std::size_t>(consumed) != text.size()) {
    throw std::invalid_argument("parse_telecom_timestamp: malformed '" + text + "'");
  }
  if (month < 1 || month > 12 || day < 1 || day > 31 || hour < 0 || hour > 23 ||
      minute < 0 || minute > 59 || second < 0 || second > 60) {
    throw std::invalid_argument("parse_telecom_timestamp: out-of-range '" + text +
                                "'");
  }
  // A day past the end of its month (2014-02-31) would roll into the next
  // one; only a real date survives the round trip through the day number.
  const std::int64_t days = day_number(year, month, day);
  int y = 0, m = 0, d = 0;
  civil_from_days(days, y, m, d);
  if (y != year || m != month || d != day) {
    throw std::invalid_argument("parse_telecom_timestamp: no such date '" +
                                text + "'");
  }
  return days * 86400 + hour * 3600 + minute * 60 + second;
}

std::string format_telecom_timestamp(std::int64_t seconds) {
  std::int64_t days = seconds / 86400;
  std::int64_t rest = seconds % 86400;
  if (rest < 0) {
    rest += 86400;
    --days;
  }
  int year = 0, month = 0, day = 0;
  civil_from_days(days, year, month, day);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02d %02d:%02d:%02d", year,
                month, day, static_cast<int>(rest / 3600),
                static_cast<int>((rest % 3600) / 60), static_cast<int>(rest % 60));
  return buffer;
}

Trace discretize_telecom_records(const std::vector<TelecomRecord>& records,
                                 const TelecomImportOptions& options) {
  if (options.step_seconds <= 0 || options.horizon == 0 ||
      options.num_devices == 0 || options.num_stations == 0) {
    throw std::invalid_argument("discretize_telecom_records: bad options");
  }
  constexpr std::uint32_t kUnset = ~std::uint32_t{0};
  // Station per (step, device), resolved by latest-starting session.
  std::vector<std::uint32_t> grid(options.horizon * options.num_devices, kUnset);
  std::vector<std::int64_t> winner_start(grid.size(),
                                         std::numeric_limits<std::int64_t>::min());

  for (const auto& record : records) {
    if (record.device >= options.num_devices ||
        record.station >= options.num_stations) {
      throw std::invalid_argument("discretize_telecom_records: id out of range");
    }
    if (record.end_time <= record.start_time) continue;  // degenerate session
    const std::int64_t rel_start = record.start_time - options.origin_time;
    const std::int64_t rel_end = record.end_time - options.origin_time;
    // Steps whose midpoint-free [t, t+1) window intersects the session.
    std::int64_t first = rel_start / options.step_seconds;
    std::int64_t last = (rel_end - 1) / options.step_seconds;
    first = std::max<std::int64_t>(first, 0);
    last = std::min<std::int64_t>(last,
                                  static_cast<std::int64_t>(options.horizon) - 1);
    for (std::int64_t t = first; t <= last; ++t) {
      const std::size_t cell =
          static_cast<std::size_t>(t) * options.num_devices + record.device;
      if (record.start_time > winner_start[cell]) {
        winner_start[cell] = record.start_time;
        grid[cell] = record.station;
      }
    }
  }

  // Gap filling: forward-fill the last association; leading gaps take the
  // device's first-ever station.
  for (std::size_t m = 0; m < options.num_devices; ++m) {
    std::uint32_t first_seen = kUnset;
    for (std::size_t t = 0; t < options.horizon && first_seen == kUnset; ++t) {
      first_seen = grid[t * options.num_devices + m];
    }
    if (first_seen == kUnset) {
      throw std::invalid_argument(
          "discretize_telecom_records: device " + std::to_string(m) +
          " has no sessions inside the horizon");
    }
    std::uint32_t current = first_seen;
    for (std::size_t t = 0; t < options.horizon; ++t) {
      auto& cell = grid[t * options.num_devices + m];
      if (cell == kUnset) {
        cell = current;
      } else {
        current = cell;
      }
    }
  }

  // Compress into run-length trace records.
  Trace trace(options.num_devices, options.num_stations, options.horizon);
  for (std::uint32_t m = 0; m < options.num_devices; ++m) {
    std::uint32_t station = grid[m];
    std::uint32_t run_start = 0;
    for (std::uint32_t t = 1; t < options.horizon; ++t) {
      const std::uint32_t next = grid[static_cast<std::size_t>(t) *
                                          options.num_devices +
                                      m];
      if (next != station) {
        trace.add_record({m, station, run_start, t});
        station = next;
        run_start = t;
      }
    }
    trace.add_record({m, station, run_start,
                      static_cast<std::uint32_t>(options.horizon)});
  }
  return trace;
}

std::vector<TelecomRecord> read_telecom_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_telecom_csv: cannot open " + path);
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error("read_telecom_csv: " + path + ": " + what +
                             " at line " + std::to_string(line_no) + ": " +
                             line);
  };
  // An id is a whole decimal uint32: no sign, no trailing text, no wrap.
  const auto parse_id = [&](const std::string& text, const char* field) {
    std::uint32_t id = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, id);
    if (ec != std::errc() || ptr != end) {
      fail(std::string("bad ") + field + " '" + text + "'");
    }
    return id;
  };
  const auto parse_time = [&](const std::string& text, const char* field) {
    try {
      return parse_telecom_timestamp(text);
    } catch (const std::invalid_argument&) {
      fail(std::string("bad ") + field + " '" + text + "'");
    }
    return std::int64_t{0};
  };
  // Parses `line`; every error is a std::runtime_error naming the path, the
  // line number and the field.
  const auto parse = [&] {
    std::stringstream ss(line);
    std::string device, station, start, end;
    if (!std::getline(ss, device, ',') || !std::getline(ss, station, ',') ||
        !std::getline(ss, start, ',') || !std::getline(ss, end)) {
      fail("malformed line");
    }
    TelecomRecord record;
    record.device = parse_id(device, "device_id");
    record.station = parse_id(station, "station_id");
    record.start_time = parse_time(start, "start_time");
    record.end_time = parse_time(end, "end_time");
    return record;
  };
  std::vector<TelecomRecord> records;
  if (std::getline(in, line)) {
    line_no = 1;
    // The header is required: skipping a first line that is a session would
    // drop it without a word, and the discretiser's gap filling would hide
    // the loss.
    bool is_record = true;
    try {
      parse();
    } catch (const std::runtime_error&) {
      is_record = false;
    }
    if (is_record) fail("missing header");
  }
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    records.push_back(parse());
  }
  return records;
}

bool write_telecom_csv(const std::vector<TelecomRecord>& records,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "device_id,station_id,start_time,end_time\n";
  for (const auto& record : records) {
    out << record.device << ',' << record.station << ','
        << format_telecom_timestamp(record.start_time) << ','
        << format_telecom_timestamp(record.end_time) << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<TelecomRecord> synthesize_telecom_records(
    MobilityModel& model, std::size_t num_devices, std::size_t horizon,
    const TelecomImportOptions& options, common::Rng& rng) {
  std::vector<TelecomRecord> records;
  for (std::uint32_t m = 0; m < num_devices; ++m) {
    std::uint32_t station = model.initial_station(m, rng);
    std::size_t run_start = 0;
    auto emit = [&](std::size_t from_step, std::size_t to_step, std::uint32_t s) {
      TelecomRecord record;
      record.device = m;
      record.station = s;
      record.start_time =
          options.origin_time +
          static_cast<std::int64_t>(from_step) * options.step_seconds +
          rng.uniform_int(0, options.step_seconds / 4);
      record.end_time = options.origin_time +
                        static_cast<std::int64_t>(to_step) * options.step_seconds -
                        rng.uniform_int(0, options.step_seconds / 4);
      if (record.end_time <= record.start_time) {
        record.end_time = record.start_time + 1;
      }
      records.push_back(record);
    };
    for (std::size_t t = 1; t < horizon; ++t) {
      const std::uint32_t next = model.next_station(m, station, rng);
      if (next != station) {
        emit(run_start, t, station);
        station = next;
        run_start = t;
      }
    }
    emit(run_start, horizon, station);
  }
  return records;
}

}  // namespace mach::mobility
