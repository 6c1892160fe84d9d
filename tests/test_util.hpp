// Shared helpers for the test suite.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "protocols/iface.hpp"
#include "protocols/local_host.hpp"
#include "protocols/serial.hpp"
#include "storage/database.hpp"
#include "txn/batch.hpp"
#include "workload/workload.hpp"

namespace quecc::testutil {

/// Fresh directory under the system temp root, removed on scope exit.
struct temp_dir {
  temp_dir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "quecc-test-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = tmpl;
  }
  ~temp_dir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  temp_dir(const temp_dir&) = delete;
  temp_dir& operator=(const temp_dir&) = delete;
  std::string path;
};

inline std::unique_ptr<storage::database> make_loaded_db(wl::workload& w) {
  auto db = std::make_unique<storage::database>();
  w.load(*db);
  return db;
}

/// Serially replay `b` against `db` in the given commit order (txn seqs);
/// transactions not listed are skipped (they aborted in the engine run).
/// Each transaction is reset first, so this works on batches that another
/// engine already executed.
inline void replay_in_order(storage::database& db, txn::batch& b,
                            const std::vector<seq_t>& order) {
  proto::inplace_host host(db);
  for (const seq_t s : order) {
    txn::txn_desc& t = b.at(s);
    t.reset_runtime();
    proto::run_txn_serially(t, host);
  }
}

/// Serially execute `b` in sequence order (the deterministic engines'
/// equivalent serial order), skipping nothing: logic aborts roll back.
inline void replay_in_seq_order(storage::database& db, txn::batch& b) {
  proto::inplace_host host(db);
  for (auto& tp : b) {
    tp->reset_runtime();
    proto::run_txn_serially(*tp, host);
  }
}

/// Statuses + value-slot fingerprints of every transaction in the batch.
inline std::vector<std::vector<std::uint64_t>> result_fingerprints(
    const txn::batch& b) {
  std::vector<std::vector<std::uint64_t>> out;
  out.reserve(b.size());
  for (const auto& tp : b) out.push_back(tp->result_fingerprint());
  return out;
}

}  // namespace quecc::testutil
