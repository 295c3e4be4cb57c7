#include "core/model_io.h"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/crc32.h"
#include "common/serialize.h"

namespace vero {
namespace {

constexpr uint32_t kMagic = 0x5645524fu;  // "VERO"
// Version 2 appends a CRC-32 trailer over everything before it; version 1
// (no trailer) is still readable.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kLegacyVersion = 1;

}  // namespace

Status SaveModel(const GbdtModel& model, const std::string& path) {
  ByteWriter writer;
  writer.WriteU32(kMagic);
  writer.WriteU32(kVersion);
  model.SerializeTo(&writer);
  writer.WriteU32(Crc32(writer.data().data(), writer.size()));
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(writer.data().data()),
            static_cast<std::streamsize>(writer.size()));
  if (!out.good()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

StatusOr<GbdtModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  ByteReader reader(reinterpret_cast<const uint8_t*>(content.data()),
                    content.size());
  uint32_t magic = 0, version = 0;
  if (!reader.ReadU32(&magic).ok() || !reader.ReadU32(&version).ok()) {
    return Status::Corruption("model file too short: " + path);
  }
  if (magic != kMagic) return Status::Corruption("bad magic in " + path);
  if (version != kVersion && version != kLegacyVersion) {
    return Status::Corruption("unsupported model version");
  }
  size_t payload_end = content.size();
  if (version == kVersion) {
    if (content.size() < 12) {
      return Status::Corruption("model file too short for CRC trailer");
    }
    payload_end = content.size() - sizeof(uint32_t);
    ByteReader trailer(
        reinterpret_cast<const uint8_t*>(content.data()) + payload_end,
        sizeof(uint32_t));
    uint32_t stored_crc = 0;
    VERO_RETURN_IF_ERROR(trailer.ReadU32(&stored_crc));
    if (Crc32(content.data(), payload_end) != stored_crc) {
      return Status::Corruption("CRC mismatch in " + path);
    }
  }
  GbdtModel model;
  Status s = GbdtModel::Deserialize(&reader, &model);
  if (!s.ok()) {
    // A short read means the file lied about its own length: corruption,
    // not a range error.
    if (s.code() == StatusCode::kOutOfRange) {
      return Status::Corruption("truncated model file " + path);
    }
    return s;
  }
  if (reader.position() != payload_end) {
    return Status::Corruption("trailing bytes in model file " + path);
  }
  return model;
}

std::string ModelToText(const GbdtModel& model) {
  std::ostringstream out;
  out << "task=" << TaskToString(model.task())
      << " classes=" << model.num_classes()
      << " learning_rate=" << model.learning_rate()
      << " trees=" << model.num_trees() << "\n";
  for (size_t t = 0; t < model.num_trees(); ++t) {
    const FlatTree& tree = model.tree(t);
    out << "tree " << t << " (leaves=" << tree.NumLeaves() << ")\n";
    tree.ForEachNode([&](uint32_t id, int32_t link) {
      out << "  node " << id << ": ";
      if (link >= 0) {
        out << "split f" << tree.feature()[link] << " <= "
            << tree.threshold()[link] << " (bin " << tree.split_bin()[link]
            << ", default " << (tree.default_left()[link] ? "left" : "right")
            << ", gain " << tree.gain()[link] << ")";
      } else {
        const float* w = tree.leaf(static_cast<uint32_t>(~link));
        out << "leaf [";
        for (uint32_t k = 0; k < tree.num_dims(); ++k) {
          if (k > 0) out << ", ";
          out << w[k];
        }
        out << "]";
      }
      out << "\n";
    });
  }
  return out.str();
}

}  // namespace vero
