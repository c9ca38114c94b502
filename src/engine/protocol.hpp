// Length-prefixed wire protocol for semilocal_serve.
//
// Framing: every message is a little-endian u32 payload length followed by
// the payload; the length is capped so a corrupt or hostile peer cannot
// trigger an unbounded allocation. Payloads are versionless by design --
// the first byte is the operation / status code and unknown codes are
// rejected, which is all the evolution a point-to-point tool needs.
//
// Request payload:   u8 op | i64 x | i64 y | u32 |a| | u32 |b| | a | b
//                    | u32 k | k * (u8 kind, i64 x, i64 y)
//                    [| i64 row0 | i64 col0 | u32 rows | u32 cols
//                     | u32 step | u32 window | u8 quant]
//   (x, y are the query window for the substring ops; sequences travel as
//    one byte per symbol, the to_sequence convention -- fine for DNA/text;
//    the trailing window list is the kBatchQuery payload, empty otherwise;
//    the bracketed plot block is present exactly for kAlignmentPlot and its
//    dimensions are capped at decode like kMaxBatchWindows)
// Response payload:  u8 status | i64 value | i64 retry_ms | u32 len | text
//                    | u32 k | k * i64 | i32 shard
//                    [| i64 row0 | i64 col0 | u32 rows | u32 cols
//                     | u8 quant | u8 last | u32 nbytes | cells]
//   (the trailing value list answers kBatchQuery, one value per window; the
//    shard id is -1 from a standalone server and the serving backend's id
//    when the response travelled through the shard router; the bracketed
//    tile block carries one chunk of a kAlignmentPlot stream -- a plot
//    answer is a SEQUENCE of response frames, all kOk tiles, the final one
//    flagged `last`; see terminal_response_frame)
//
// The same encode/decode pair runs on both ends (server, load generator,
// tests), so framing bugs are structurally symmetric and caught by the
// round-trip tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "engine/query.hpp"
#include "util/types.hpp"

namespace semilocal {

/// Malformed frame or payload (bad length, unknown code, short read).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Op : std::uint8_t {
  kPing = 0,             ///< liveness check; value echoes 0
  kLcs = 1,              ///< LCS(a, b)
  kStringSubstring = 2,  ///< LCS(a, b[x, y))
  kSubstringString = 3,  ///< LCS(a[x, y), b)
  kStats = 4,            ///< engine stats as JSON text
  kBatchQuery = 5,       ///< k windows over one pair; values in response
  kHealth = 6,           ///< identity probe; text = {"pid", "uptime_ms", ...}
  kShardCtl = 7,         ///< router admin (x = command, y = shard, a = arg)
  kAlignmentPlot = 8,    ///< grid of window LCS scores; streamed tile frames
  kUpsert = 9,           ///< versioned corpus upsert (a = document id bytes,
                         ///< b = document bytes); value = new version,
                         ///< text = upsert report JSON
};

/// kShardCtl command codes, carried in Request::x. The shard id travels in
/// Request::y and the weight argument (ASCII decimal) in Request::a.
enum class ShardCtl : std::int64_t {
  kStatus = 0,   ///< ring + per-shard health as JSON text
  kWeight = 1,   ///< set shard y's ring weight to atoi(a); generation bumps
  kDrain = 2,    ///< weight -> 0, mark drained; in-flight work completes
  kUndrain = 3,  ///< restore the pre-drain weight
};

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,       ///< text carries the message
  kOverloaded = 2,  ///< backpressure; retry after retry_ms
};

struct Request {
  Op op = Op::kPing;
  Sequence a;
  Sequence b;
  Index x = 0;
  Index y = 0;
  /// kBatchQuery only: the k windows to answer over (a, b) in one frame.
  std::vector<WindowQuery> windows;
  /// kAlignmentPlot only: the grid to plot over (a, b).
  std::optional<PlotSpec> plot;
};

struct Response {
  Status status = Status::kOk;
  Index value = 0;
  Index retry_ms = 0;
  std::string text;
  /// kBatchQuery only: one answer per request window, in order.
  std::vector<Index> values;
  /// Serving backend's shard id, stamped by the router; -1 = not sharded.
  std::int32_t shard = -1;
  /// kAlignmentPlot only: one streamed tile of the plot.
  std::optional<PlotTile> tile;
};

/// A request payload parsed in place: every field validated exactly as
/// decode_request validates it, the sequences left as views into the
/// payload. decode_request is built on the same parser; the shard router
/// reads the op and digests `a`/`b` from it, then forwards the payload bytes
/// unchanged.
struct RequestView {
  Op op = Op::kPing;
  Index x = 0;
  Index y = 0;
  std::string_view a;  ///< one byte per symbol
  std::string_view b;
  std::optional<PlotSpec> plot;
};

/// A response payload parsed in place (the twin of RequestView):
/// decode_response is built on it, and the shard router relays a backend
/// frame after reading its status and terminal flag and restamping its
/// shard field (stamp_shard).
struct ResponseView {
  struct Tile {
    Index row0 = 0;
    Index col0 = 0;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint8_t quant = 16;
    bool last = false;
    std::string_view cells;
  };
  Status status = Status::kOk;
  Index value = 0;
  Index retry_ms = 0;
  std::string_view text;
  std::string_view values;  ///< value_count * i64
  std::uint32_t value_count = 0;
  std::int32_t shard = -1;
  std::size_t shard_offset = 0;  ///< byte offset of the shard field
  std::optional<Tile> tile;
};

/// Whether this response frame ends its request's response stream. Every op
/// except kAlignmentPlot answers with exactly one (terminal) frame; a plot
/// streams kOk tile frames and terminates on the `last` tile -- or on any
/// non-kOk frame, which aborts the stream.
template <typename R>
[[nodiscard]] bool terminal_response_frame(const R& response) {
  return response.status != Status::kOk || !response.tile || response.tile->last;
}

/// Frames larger than this are rejected on read and refused on write.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 26;  // 64 MiB

/// Windows per kBatchQuery frame are capped so a hostile peer cannot turn a
/// small frame into an unbounded allocation or an unbounded unit of work.
inline constexpr std::size_t kMaxBatchWindows = std::size_t{1} << 16;  // 65536

/// Writes one frame (length prefix + payload). Throws ProtocolError if the
/// payload exceeds kMaxFrameBytes, std::runtime_error on stream failure.
void write_frame(std::ostream& out, std::string_view payload);

/// Reads one frame's payload. Returns nullopt on clean EOF (no bytes of a
/// next frame); throws ProtocolError on oversized lengths or truncation.
std::optional<std::string> read_frame(std::istream& in);

std::string encode_request(const Request& request);
/// Throw ProtocolError on a malformed payload.
RequestView decode_request_view(std::string_view payload);
Request decode_request(std::string_view payload);

std::string encode_response(const Response& response);
/// Throw ProtocolError on a malformed payload.
ResponseView decode_response_view(std::string_view payload);
Response decode_response(std::string_view payload);

/// Overwrites the shard field of the response payload at `payload`, which
/// `view` was decoded from.
void stamp_shard(char* payload, const ResponseView& view, std::int32_t shard);

/// Frames `payload` for the wire: the little-endian u32 length prefix plus
/// the payload bytes, as one contiguous buffer. Throws ProtocolError past
/// kMaxFrameBytes. The event-driven frontend appends these to its per-
/// connection write queue; write_frame() is the iostream twin.
std::string frame_payload(std::string_view payload);

/// Incremental frame decoder: the reactor-side twin of read_frame().
///
/// A connection feeds whatever bytes the socket produced -- half a header,
/// three frames and a tail, one byte -- and the decoder emits each complete
/// payload exactly once, in order. Invariants the torture suite pins:
///
///   * Split-invariance: any partition of a byte stream into feed() calls
///     yields byte-identical payloads in the same order as one whole-stream
///     feed.
///   * Zero-copy fast path: a frame wholly contained in one fed chunk is
///     handed to the sink as a view into that chunk, never copied. Only
///     frames that span feeds are assembled in the carry buffer (the sink's
///     `spanned` flag reports which path delivered the frame -- the
///     frontend's partial_frames counter).
///   * Bounded allocation: a declared length is validated against
///     kMaxFrameBytes the moment the 4th header byte arrives, before any
///     payload buffering, so a hostile 4 GiB header costs nothing. The carry
///     buffer never reserves more than one validated frame.
///
/// After a ProtocolError the decoder is poisoned -- the stream has no frame
/// boundary to resynchronize on, matching read_frame()'s hang-up contract.
class FrameDecoder {
 public:
  /// Feeds a chunk; invokes sink(payload, spanned) per completed frame.
  /// Returns the number of frames completed by this chunk. Throws
  /// ProtocolError on an oversized declared length (before buffering it).
  template <typename Sink>
  std::size_t feed(std::string_view bytes, Sink&& sink) {
    std::size_t frames = 0;
    while (!bytes.empty()) {
      if (carry_.empty()) {
        if (bytes.size() < 4) {  // not even a header: buffer and wait
          carry_.assign(bytes);
          break;
        }
        const std::size_t len = header_length(bytes.data());
        if (bytes.size() - 4 >= len) {  // whole frame in this chunk: no copy
          sink(bytes.substr(4, len), /*spanned=*/false);
          ++frames;
          bytes.remove_prefix(4 + len);
          continue;
        }
        carry_.reserve(4 + len);  // validated: bounded by kMaxFrameBytes
        carry_.assign(bytes);
        break;
      }
      // Mid-frame: finish the header first (its length gates allocation).
      if (carry_.size() < 4) {
        const std::size_t take = std::min<std::size_t>(4 - carry_.size(), bytes.size());
        carry_.append(bytes.substr(0, take));
        bytes.remove_prefix(take);
        if (carry_.size() < 4) break;
        carry_.reserve(4 + header_length(carry_.data()));
      }
      const std::size_t len = header_length(carry_.data());
      const std::size_t take = std::min(4 + len - carry_.size(), bytes.size());
      carry_.append(bytes.substr(0, take));
      bytes.remove_prefix(take);
      if (carry_.size() < 4 + len) break;
      sink(std::string_view(carry_).substr(4), /*spanned=*/true);
      ++frames;
      carry_.clear();
    }
    return frames;
  }

  /// True while a started frame awaits more bytes (arms the read timeout).
  [[nodiscard]] bool mid_frame() const { return !carry_.empty(); }

  /// Bytes currently buffered for the incomplete frame (header included).
  [[nodiscard]] std::size_t buffered_bytes() const { return carry_.size(); }

 private:
  /// Decodes and validates the u32 length of a 4-byte header.
  static std::size_t header_length(const char* header) {
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<unsigned char>(header[i]);
    }
    if (len > kMaxFrameBytes) throw ProtocolError("frame length exceeds limit");
    return len;
  }

  std::string carry_;  ///< the (at most one) incomplete frame, header first
};

/// Client-side reassembly of a streamed plot into the full grid.
///
/// Tiles may arrive in any order and more than once: the shard router
/// re-sends the whole plot to the next replica on mid-stream failover, so a
/// client can legitimately see the stream's prefix twice. feed() dedups per
/// cell; complete() reports when every grid cell has landed. Tiles that
/// disagree with the grid (wrong quant, out of bounds, short cell payload)
/// throw ProtocolError -- that is corruption, not reordering.
class PlotAssembler {
 public:
  PlotAssembler(Index rows, Index cols, std::uint8_t quant)
      : rows_(rows),
        cols_(cols),
        quant_(quant),
        values_(static_cast<std::size_t>(rows * cols), 0),
        filled_(static_cast<std::size_t>(rows * cols), 0) {}

  /// Absorbs one kOk tile frame; non-tile frames are ignored. Returns the
  /// number of cells this frame newly filled.
  std::size_t feed(const Response& response) {
    if (response.status != Status::kOk || !response.tile) return 0;
    const PlotTile& t = *response.tile;
    if (t.quant != quant_) throw ProtocolError("plot tile: quant mismatch");
    if (t.row0 < 0 || t.col0 < 0 ||
        t.row0 + static_cast<Index>(t.rows) > rows_ ||
        t.col0 + static_cast<Index>(t.cols) > cols_) {
      throw ProtocolError("plot tile outside the grid");
    }
    const std::size_t cell_bytes = quant_ == 16 ? 2 : 1;
    if (t.cells.size() !=
        static_cast<std::size_t>(t.rows) * static_cast<std::size_t>(t.cols) * cell_bytes) {
      throw ProtocolError("plot tile: cell byte count mismatch");
    }
    std::size_t fresh = 0;
    const auto* src = reinterpret_cast<const unsigned char*>(t.cells.data());
    for (std::uint32_t r = 0; r < t.rows; ++r) {
      for (std::uint32_t c = 0; c < t.cols; ++c) {
        const Index value = quant_ == 16
                                ? static_cast<Index>(src[0]) | (static_cast<Index>(src[1]) << 8)
                                : static_cast<Index>(src[0]);
        src += cell_bytes;
        const auto idx = static_cast<std::size_t>((t.row0 + r) * cols_ + t.col0 + c);
        if (filled_[idx]) {
          ++duplicate_cells_;
          continue;
        }
        filled_[idx] = 1;
        values_[idx] = value;
        ++fresh;
      }
    }
    filled_count_ += fresh;
    return fresh;
  }

  [[nodiscard]] bool complete() const { return filled_count_ == values_.size(); }
  [[nodiscard]] std::size_t filled() const { return filled_count_; }
  [[nodiscard]] std::uint64_t duplicate_cells() const { return duplicate_cells_; }
  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }

  /// Cell (u, v): the raw u16 score for quant 16, the scaled u8 for quant 8.
  [[nodiscard]] Index cell(Index u, Index v) const {
    return values_[static_cast<std::size_t>(u * cols_ + v)];
  }

 private:
  Index rows_;
  Index cols_;
  std::uint8_t quant_;
  std::vector<Index> values_;
  std::vector<unsigned char> filled_;
  std::size_t filled_count_ = 0;
  std::uint64_t duplicate_cells_ = 0;
};

}  // namespace semilocal
