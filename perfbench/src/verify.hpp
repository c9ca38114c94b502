// Answer checks, run after the timed window. kLcs scores are checked
// against the bit-parallel baseline of src/lcs (Hyyro), substring windows
// and plot cells against a freshly computed semi_local_kernel, upserts
// against the versions their acknowledged order implies.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/protocol.hpp"
#include "metrics.hpp"
#include "workload.hpp"

namespace perfbench {

struct CheckCounts {
  std::uint64_t lcs = 0;      ///< kLcs answers checked against src/lcs
  std::uint64_t windows = 0;  ///< windows checked against a fresh kernel
  std::uint64_t cells = 0;    ///< plot cells checked against a fresh kernel
  std::uint64_t upserts = 0;  ///< upsert versions checked
  std::uint64_t published = 0;  ///< published corpus pairs checked
};

/// What a corpus_mixed document must hold after the window: the bytes of
/// its last acknowledged upsert at the version their order implies.
struct DocState {
  std::uint32_t seq = 0;  ///< id into Stream::seqs
  semilocal::Index version = 1;
  /// An upsert of it failed (refused, error, unanswered): whether it was
  /// applied is unknown, so its later versions and final bytes are too.
  bool diverged = false;
};

/// Records what the server answered during the window (on the receiver
/// threads: each request is only ever touched by its connection's thread)
/// and checks it afterwards.
class Checker {
 public:
  explicit Checker(const Stream& stream);

  void on_frame(std::size_t i, const semilocal::Response& r);

  /// Per request: true when a kOk answer was checked and found wrong (or a
  /// kOk plot stream or batch was incomplete). Call after the window with
  /// its timings: upserts of one document are checked in the order their
  /// answers arrived.
  std::vector<bool> wrong(const DueTimes& times);

  [[nodiscard]] const CheckCounts& counts() const { return counts_; }
  /// Per document: its expected final state. Valid after wrong().
  [[nodiscard]] const std::vector<DocState>& final_docs() const { return docs_; }
  /// Upsert report texts (JSON) the server returned, in schedule order.
  [[nodiscard]] std::vector<std::string> upsert_reports() const;

 private:
  struct Got {
    bool ok = false;  ///< the final frame was kOk
    semilocal::Index value = 0;
    std::vector<semilocal::Index> samples;  ///< sampled batch windows / plot cells
    bool complete = true;                   ///< plot: every cell arrived
    std::string text;                       ///< upsert report
  };
  const Stream& s_;
  std::vector<Got> got_;
  std::vector<std::unique_ptr<semilocal::PlotAssembler>> plots_;
  CheckCounts counts_;
  std::vector<DocState> docs_;
};

/// Sampled positions of request i: batch windows or plot cells.
std::vector<std::size_t> sampled_positions(const Stream& s, std::size_t i, std::size_t total);

/// corpus_mixed, after the window: loads the corpus the server published
/// under `corpus_dir`, checks each document that did not diverge holds its
/// expected bytes and version, and checks the server's answers on every
/// published pair against a fresh kernel. Returns the number of
/// mismatches; bumps counts.published.
std::size_t check_published_corpus(const Stream& s, const std::string& corpus_dir, int port,
                                   const std::vector<DocState>& docs, CheckCounts& counts);

}  // namespace perfbench
