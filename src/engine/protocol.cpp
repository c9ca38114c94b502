#include "engine/protocol.hpp"

#include <istream>
#include <ostream>
#include <span>

namespace semilocal {
namespace {

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void append_i64(std::string& out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((u >> (8 * i)) & 0xff));
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint32_t u32() {
    const auto bytes = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
    return v;
  }

  std::int64_t i64() {
    const auto bytes = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
    return static_cast<std::int64_t>(v);
  }

  std::string_view bytes(std::size_t n) {
    const auto taken = take(n);
    return {reinterpret_cast<const char*>(taken.data()), n};
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }

  void expect_end() const {
    if (pos_ != data_.size()) throw ProtocolError("payload has trailing bytes");
  }

  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

 private:
  std::span<const unsigned char> take(std::size_t n) {
    if (data_.size() - pos_ < n) throw ProtocolError("payload truncated");
    const auto* base = reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    pos_ += n;
    return {base, n};
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

void append_sequence_bytes(std::string& out, SequenceView s) {
  for (const Symbol sym : s) out.push_back(static_cast<char>(sym & 0xff));
}

/// Wire bytes to symbols; a plain indexed loop, so the compiler widens
/// many bytes per instruction.
Sequence widen(std::string_view bytes) {
  Sequence out(bytes.size());
  const auto* src = reinterpret_cast<const unsigned char*>(bytes.data());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<Symbol>(src[i]);
  return out;
}

}  // namespace

void write_frame(std::ostream& out, std::string_view payload) {
  // One buffer, one write: over an unbuffered socket stream, a separate
  // 4-byte header write would cost a Nagle/delayed-ACK round trip per frame.
  const std::string frame = frame_payload(payload);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out) throw std::runtime_error("write_frame: stream failure");
}

std::optional<std::string> read_frame(std::istream& in) {
  char header[4];
  in.read(header, 1);
  if (in.gcount() == 0) return std::nullopt;  // clean EOF between frames
  in.read(header + 1, 3);
  if (!in || in.gcount() != 3) throw ProtocolError("truncated frame header");
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) {
    len = (len << 8) | static_cast<unsigned char>(header[i]);
  }
  if (len > kMaxFrameBytes) throw ProtocolError("frame length exceeds limit");
  std::string payload(len, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(len));
  if (!in || in.gcount() != static_cast<std::streamsize>(len)) {
    throw ProtocolError("truncated frame payload");
  }
  return payload;
}

std::string frame_payload(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ProtocolError("frame payload exceeds limit");
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  append_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  return frame;
}

std::string encode_request(const Request& request) {
  if (request.windows.size() > kMaxBatchWindows) {
    throw ProtocolError("batch window count exceeds limit");
  }
  if (request.op == Op::kAlignmentPlot) {
    if (!request.plot) throw ProtocolError("plot request without a plot spec");
    if (const char* err = validate_plot_spec(*request.plot)) throw ProtocolError(err);
  }
  std::string out;
  out.reserve(25 + request.a.size() + request.b.size() + 17 * request.windows.size() +
              (request.plot ? 33 : 0));
  out.push_back(static_cast<char>(request.op));
  append_i64(out, request.x);
  append_i64(out, request.y);
  append_u32(out, static_cast<std::uint32_t>(request.a.size()));
  append_u32(out, static_cast<std::uint32_t>(request.b.size()));
  append_sequence_bytes(out, request.a);
  append_sequence_bytes(out, request.b);
  append_u32(out, static_cast<std::uint32_t>(request.windows.size()));
  for (const WindowQuery& w : request.windows) {
    out.push_back(static_cast<char>(w.kind));
    append_i64(out, w.x);
    append_i64(out, w.y);
  }
  if (request.plot) {
    const PlotSpec& p = *request.plot;
    append_i64(out, p.row0);
    append_i64(out, p.col0);
    append_u32(out, static_cast<std::uint32_t>(p.rows));
    append_u32(out, static_cast<std::uint32_t>(p.cols));
    append_u32(out, static_cast<std::uint32_t>(p.step));
    append_u32(out, static_cast<std::uint32_t>(p.window));
    out.push_back(static_cast<char>(p.quant));
  }
  return out;
}

namespace {

/// The one request parser. `windows`, when given, also receives the decoded
/// window list, so decode_request reads the payload once.
RequestView parse_request(std::string_view payload, std::vector<WindowQuery>* windows) {
  Reader reader(payload);
  RequestView request;
  const auto op = reader.u8();
  switch (static_cast<Op>(op)) {
    case Op::kPing:
    case Op::kLcs:
    case Op::kStringSubstring:
    case Op::kSubstringString:
    case Op::kStats:
    case Op::kBatchQuery:
    case Op::kHealth:
    case Op::kShardCtl:
    case Op::kAlignmentPlot:
    case Op::kUpsert:
      request.op = static_cast<Op>(op);
      break;
    default:
      throw ProtocolError("unknown request op " + std::to_string(op));
  }
  request.x = reader.i64();
  request.y = reader.i64();
  const std::uint32_t la = reader.u32();
  const std::uint32_t lb = reader.u32();
  request.a = reader.bytes(la);
  request.b = reader.bytes(lb);
  const std::uint32_t wins = reader.u32();
  if (wins > kMaxBatchWindows) throw ProtocolError("batch window count exceeds limit");
  if (windows != nullptr) windows->reserve(wins);
  for (std::uint32_t i = 0; i < wins; ++i) {
    WindowQuery w;
    const auto kind = reader.u8();
    switch (static_cast<QueryKind>(kind)) {
      case QueryKind::kLcs:
      case QueryKind::kStringSubstring:
      case QueryKind::kSubstringString:
        w.kind = static_cast<QueryKind>(kind);
        break;
      default:
        throw ProtocolError("unknown window query kind " + std::to_string(kind));
    }
    w.x = reader.i64();
    w.y = reader.i64();
    if (windows != nullptr) windows->push_back(w);
  }
  if (request.op == Op::kAlignmentPlot) {
    // Hostile dimensions die here, before the engine sees the request --
    // the plot twin of the kMaxBatchWindows cap above.
    PlotSpec plot;
    plot.row0 = reader.i64();
    plot.col0 = reader.i64();
    plot.rows = static_cast<Index>(reader.u32());
    plot.cols = static_cast<Index>(reader.u32());
    plot.step = static_cast<Index>(reader.u32());
    plot.window = static_cast<Index>(reader.u32());
    plot.quant = reader.u8();
    if (const char* err = validate_plot_spec(plot)) throw ProtocolError(err);
    request.plot = plot;
  }
  reader.expect_end();
  return request;
}

}  // namespace

RequestView decode_request_view(std::string_view payload) {
  return parse_request(payload, nullptr);
}

Request decode_request(std::string_view payload) {
  Request request;
  const RequestView view = parse_request(payload, &request.windows);
  request.op = view.op;
  request.x = view.x;
  request.y = view.y;
  request.a = widen(view.a);
  request.b = widen(view.b);
  request.plot = view.plot;
  return request;
}

std::string encode_response(const Response& response) {
  if (response.values.size() > kMaxBatchWindows) {
    throw ProtocolError("batch value count exceeds limit");
  }
  if (response.tile) {
    const PlotTile& t = *response.tile;
    const std::size_t cells =
        static_cast<std::size_t>(t.rows) * static_cast<std::size_t>(t.cols);
    if (t.rows < 1 || t.cols < 1 || cells > static_cast<std::size_t>(kMaxPlotTileCells)) {
      throw ProtocolError("plot tile dimensions exceed limit");
    }
    if (t.quant != 8 && t.quant != 16) throw ProtocolError("plot tile: bad quant");
    if (t.cells.size() != cells * (t.quant == 16 ? 2 : 1)) {
      throw ProtocolError("plot tile: cell byte count mismatch");
    }
  }
  std::string out;
  out.reserve(25 + response.text.size() + 8 * response.values.size() +
              (response.tile ? 30 + response.tile->cells.size() : 0));
  out.push_back(static_cast<char>(response.status));
  append_i64(out, response.value);
  append_i64(out, response.retry_ms);
  append_u32(out, static_cast<std::uint32_t>(response.text.size()));
  out += response.text;
  append_u32(out, static_cast<std::uint32_t>(response.values.size()));
  for (const Index v : response.values) append_i64(out, v);
  append_u32(out, static_cast<std::uint32_t>(response.shard));
  if (response.tile) {
    const PlotTile& t = *response.tile;
    append_i64(out, t.row0);
    append_i64(out, t.col0);
    append_u32(out, t.rows);
    append_u32(out, t.cols);
    out.push_back(static_cast<char>(t.quant));
    out.push_back(static_cast<char>(t.last ? 1 : 0));
    append_u32(out, static_cast<std::uint32_t>(t.cells.size()));
    out += t.cells;
  }
  return out;
}

ResponseView decode_response_view(std::string_view payload) {
  Reader reader(payload);
  ResponseView response;
  const auto status = reader.u8();
  switch (static_cast<Status>(status)) {
    case Status::kOk:
    case Status::kError:
    case Status::kOverloaded:
      response.status = static_cast<Status>(status);
      break;
    default:
      throw ProtocolError("unknown response status " + std::to_string(status));
  }
  response.value = reader.i64();
  response.retry_ms = reader.i64();
  const std::uint32_t len = reader.u32();
  response.text = reader.bytes(len);
  const std::uint32_t vals = reader.u32();
  if (vals > kMaxBatchWindows) throw ProtocolError("batch value count exceeds limit");
  response.values = reader.bytes(std::size_t{8} * vals);
  response.value_count = vals;
  response.shard_offset = reader.pos();
  response.shard = static_cast<std::int32_t>(reader.u32());
  if (!reader.at_end()) {
    // Optional trailing tile block (kAlignmentPlot streams); absent frames
    // end at the shard id, which keeps pre-plot peers decodable.
    ResponseView::Tile tile;
    tile.row0 = reader.i64();
    tile.col0 = reader.i64();
    tile.rows = reader.u32();
    tile.cols = reader.u32();
    tile.quant = reader.u8();
    const auto last = reader.u8();
    if (last > 1) throw ProtocolError("plot tile: bad last flag");
    tile.last = last == 1;
    if (tile.quant != 8 && tile.quant != 16) throw ProtocolError("plot tile: bad quant");
    const std::size_t cells =
        static_cast<std::size_t>(tile.rows) * static_cast<std::size_t>(tile.cols);
    if (tile.rows < 1 || tile.cols < 1 ||
        cells > static_cast<std::size_t>(kMaxPlotTileCells)) {
      throw ProtocolError("plot tile dimensions exceed limit");
    }
    const std::uint32_t nbytes = reader.u32();
    if (nbytes != cells * (tile.quant == 16 ? 2 : 1)) {
      throw ProtocolError("plot tile: cell byte count mismatch");
    }
    tile.cells = reader.bytes(nbytes);
    if (tile.row0 < 0 || tile.col0 < 0) throw ProtocolError("plot tile: negative origin");
    response.tile = tile;
  }
  reader.expect_end();
  return response;
}

Response decode_response(std::string_view payload) {
  const ResponseView view = decode_response_view(payload);
  Response response;
  response.status = view.status;
  response.value = view.value;
  response.retry_ms = view.retry_ms;
  response.text = std::string(view.text);
  response.values.reserve(view.value_count);
  Reader values(view.values);
  for (std::uint32_t i = 0; i < view.value_count; ++i) response.values.push_back(values.i64());
  response.shard = view.shard;
  if (view.tile) {
    const ResponseView::Tile& t = *view.tile;
    PlotTile tile;
    tile.row0 = t.row0;
    tile.col0 = t.col0;
    tile.rows = t.rows;
    tile.cols = t.cols;
    tile.quant = t.quant;
    tile.last = t.last;
    tile.cells = std::string(t.cells);
    response.tile = std::move(tile);
  }
  return response;
}

void stamp_shard(char* payload, const ResponseView& view, std::int32_t shard) {
  const auto u = static_cast<std::uint32_t>(shard);
  for (std::size_t i = 0; i < 4; ++i) {
    payload[view.shard_offset + i] = static_cast<char>((u >> (8 * i)) & 0xff);
  }
}

}  // namespace semilocal
