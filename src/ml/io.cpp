#include "ml/io.hpp"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/atomic_file.hpp"
#include "util/crc32.hpp"

namespace fsml::ml {

void write_arff(const Dataset& data, const std::string& relation,
                std::ostream& os) {
  os << "@relation " << relation << '\n' << '\n';
  for (const auto& name : data.attribute_names())
    os << "@attribute " << name << " numeric\n";
  os << "@attribute class {";
  for (std::size_t i = 0; i < data.class_names().size(); ++i) {
    if (i) os << ',';
    os << data.class_names()[i];
  }
  os << "}\n\n@data\n";
  os << std::setprecision(17);
  for (const Instance& inst : data.instances()) {
    for (const double v : inst.x) os << v << ',';
    os << data.class_name(inst.y) << '\n';
  }
}

// ---- versioned model persistence -------------------------------------------

namespace {

constexpr const char* kModelMagic = "fsml-model";

[[noreturn]] void model_error(const std::string& what) {
  throw std::runtime_error(
      "model file: " + what +
      " — if the file is damaged, delete it and retrain with "
      "`fsml_analyze train`");
}

}  // namespace

std::uint64_t schema_hash(const std::vector<std::string>& attributes,
                          const std::vector<std::string>& classes) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) h = (h ^ static_cast<std::uint64_t>(c)) *
                               1099511628211ULL;
    h = (h ^ 0x1Fu) * 1099511628211ULL;  // name separator
  };
  for (const auto& a : attributes) mix(a);
  mix("|");  // attribute/class boundary
  for (const auto& c : classes) mix(c);
  return h;
}

void write_container(std::ostream& os, const std::string& payload,
                     std::uint64_t schema) {
  char schema_hex[32], crc[16];
  std::snprintf(schema_hex, sizeof schema_hex, "%016llx",
                static_cast<unsigned long long>(schema));
  std::snprintf(crc, sizeof crc, "%08x", util::crc32(payload));

  os << kModelMagic << " v" << kModelFormatVersion << '\n'
     << "schema " << schema_hex << '\n'
     << "payload " << payload.size() << '\n'
     << payload << "crc32 " << crc << '\n';
}

ModelContainer read_container(std::istream& is) {
  std::string magic;
  is >> magic;
  if (!is) model_error("empty or unreadable stream");
  if (magic != kModelMagic)
    model_error("bad magic '" + magic + "' (expected '" + kModelMagic +
                "'): not an fsml model file");

  std::string version;
  is >> version;
  unsigned parsed_version = 0;
  if (std::sscanf(version.c_str(), "v%u", &parsed_version) != 1)
    model_error("malformed version '" + version + "'");
  if (parsed_version != kModelFormatVersion)
    model_error("format v" + std::to_string(parsed_version) +
                " is not supported by this build (expects v" +
                std::to_string(kModelFormatVersion) +
                "); retrain or use a matching fsml build");

  std::string keyword;
  ModelContainer out;
  unsigned long long schema = 0;
  is >> keyword >> std::hex >> schema >> std::dec;
  if (!is || keyword != "schema") model_error("malformed schema line");
  out.schema = schema;
  std::size_t payload_bytes = 0;
  is >> keyword >> payload_bytes;
  if (!is || keyword != "payload") model_error("malformed payload header");
  is.ignore(1);  // the newline ending the payload header

  out.payload.assign(payload_bytes, '\0');
  is.read(out.payload.data(), static_cast<std::streamsize>(payload_bytes));
  if (is.gcount() != static_cast<std::streamsize>(payload_bytes))
    model_error("truncated payload (expected " +
                std::to_string(payload_bytes) + " bytes, got " +
                std::to_string(is.gcount()) + ")");

  unsigned long long crc = 0;
  is >> keyword >> std::hex >> crc >> std::dec;
  if (!is || keyword != "crc32") model_error("missing CRC footer");
  if (util::crc32(out.payload) != crc)
    model_error("CRC mismatch: the file is corrupt");
  return out;
}

void save_model(const C45Tree& tree, std::ostream& os) {
  std::ostringstream payload;
  tree.save(payload);
  write_container(os, payload.str(),
                  schema_hash(tree.attribute_names(), tree.class_names()));
}

C45Tree load_model(std::istream& is) {
  std::string magic;
  is >> magic;
  if (!is) model_error("empty or unreadable stream");
  is.seekg(0);
  if (magic == "fsml-c45") {
    // Legacy bare payload (pre-container): load directly.
    return C45Tree::load(is);
  }

  const ModelContainer container = read_container(is);
  std::istringstream ps(container.payload);
  C45Tree tree = C45Tree::load(ps);
  if (schema_hash(tree.attribute_names(), tree.class_names()) !=
      container.schema)
    model_error("schema hash does not match the payload: the file is "
                "corrupt or was tampered with");
  return tree;
}

void save_model_file(const C45Tree& tree, const std::string& path) {
  util::AtomicFile file(path);
  save_model(tree, file.stream());
  file.commit();
}

C45Tree load_model_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw std::runtime_error("cannot open model file " + path +
                             " — train one with `fsml_analyze train "
                             "--save-model=" + path + "`");
  try {
    return load_model(is);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace fsml::ml
