// Importer for Shanghai-Telecom-style access logs.
//
// The paper replays a dataset of records "device, base station, session
// start timestamp, session end timestamp" spanning months. This module
// ingests that schema from CSV ("device_id,station_id,start,end" with
// ISO-8601-like timestamps "YYYY-MM-DD HH:MM:SS"), discretises wall-clock
// time into fixed-length steps, resolves conflicts (overlapping sessions:
// the later-starting session wins) and fills coverage gaps with the most
// recent station (devices stay associated with their last base station
// while idle), producing the dense Trace the simulator replays.
//
// A matching exporter synthesises logs in the same schema from a mobility
// model, so the full import pipeline can be exercised without the
// proprietary dataset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mobility/mobility_model.h"
#include "mobility/trace.h"

namespace mach::mobility {

/// One raw telecom session record (wall-clock seconds since epoch).
struct TelecomRecord {
  std::uint32_t device = 0;
  std::uint32_t station = 0;
  std::int64_t start_time = 0;  // seconds
  std::int64_t end_time = 0;    // seconds, exclusive
};

/// Parses "YYYY-MM-DD HH:MM:SS" into seconds since an arbitrary fixed epoch
/// (days are composed via a proleptic-Gregorian day number; only ordering
/// and differences matter). Throws std::invalid_argument on malformed input.
std::int64_t parse_telecom_timestamp(const std::string& text);

/// Renders seconds-since-epoch back into the dataset's timestamp format.
std::string format_telecom_timestamp(std::int64_t seconds);

struct TelecomImportOptions {
  /// Wall-clock seconds per simulation time step.
  std::int64_t step_seconds = 3600;
  /// Number of devices/stations (ids must be < these).
  std::size_t num_devices = 0;
  std::size_t num_stations = 0;
  /// Steps in the output trace; sessions beyond the horizon are clipped.
  std::size_t horizon = 0;
  /// Wall-clock time of simulation step 0.
  std::int64_t origin_time = 0;
};

/// Discretises raw session records into a dense, gap-free Trace.
/// Devices with no record before some step t hold their first-ever station
/// retroactively (every device must have at least one record).
Trace discretize_telecom_records(const std::vector<TelecomRecord>& records,
                                 const TelecomImportOptions& options);

/// Reads "device_id,station_id,start,end" CSV. The header is required: a
/// first line that parses as a session throws, naming line 1. Ids are whole
/// decimal uint32 values; a line without four fields, a bad id (sign,
/// trailing text, above 2^32 - 1) or a bad timestamp throws
/// std::runtime_error naming the path, the line number and the field.
std::vector<TelecomRecord> read_telecom_csv(const std::string& path);

/// Writes records in the same schema.
bool write_telecom_csv(const std::vector<TelecomRecord>& records,
                       const std::string& path);

/// Synthesises raw session records by running a mobility model: each
/// station visit becomes a session with slightly jittered boundaries and
/// occasional idle gaps (uncovered wall-clock time), mimicking real logs.
std::vector<TelecomRecord> synthesize_telecom_records(
    MobilityModel& model, std::size_t num_devices, std::size_t horizon,
    const TelecomImportOptions& options, common::Rng& rng);

}  // namespace mach::mobility
