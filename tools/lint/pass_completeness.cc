// Pass `completeness` — cross-checks the per-message-type tables no
// compiler sees against the `Message` variant in proto/message.h. The
// tables in code (message names, wire_size, the wire codec's body encoders
// and decoders, the capture format's field lists) are derived from the
// variant, so a type missing from one of them is a compile error; what is
// left are the docs and the span-stamping convention:
//
//   variant-membership  struct list == variant list, both directions
//   span-doc            the span-propagation section of docs/PROTOCOL.md
//   span-stamp          a `<msg>.span = SpanContext{...}` stamping site in
//                       proto/*.cc for every type the doc table lists
//
// Plus the transport drop-counter audit ("every packet lands in exactly
// one bucket", PR 3): every `*_drops` field of net::Transport's Stats must
// have an increment site in net/ and appear in the total-drops
// reconciliation in core/experiment.cc.
//
// Plus the wire-format doc audit (real-wire mode): the packet-format table
// in docs/WIRE.md must list exactly the Message variant's members
// (wire-doc), both directions.
//
// Plus the resource-gauge audit (scale observatory): the gauge names
// obs::ResourceProbe publishes (kResourceGaugeNames in
// obs/resource_probe.h) and the "Resource and scheduler gauges" table in
// docs/OBSERVABILITY.md must list exactly the same set, both directions —
// an undocumented gauge or a documented phantom gauge is a finding.
//
// Plus the rx-error audit (fleet telemetry plane): every counter field of
// wire::UdpTransport::RxErrors must appear in kRxErrorBucketNames (the
// for_each_rx_error export table that feeds --metrics-out and telemetry
// snapshots) and in the "Rx error counters" table of docs/WIRE.md, both
// directions — a codec rejection bucket the fleet cannot see is a finding.
//
// Plus the telemetry-record audit: the kTelemetryRecordNames inventory in
// wire/telemetry.h and the "Telemetry record types" table in
// docs/OBSERVABILITY.md must list exactly the same record types.

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/passes.h"
#include "lint/text.h"

namespace ppsim::lint {

namespace {

constexpr std::string_view kPass = "completeness";

const SourceFile* find_file(const Tree& tree, std::string_view rel) {
  for (const SourceFile& f : tree.files)
    if (f.rel == rel) return &f;
  return nullptr;
}

struct StructDecl {
  std::string name;
  int line = 0;
  std::string body;
};

std::vector<StructDecl> parse_structs(const std::string& stripped) {
  std::vector<StructDecl> out;
  std::size_t pos = 0;
  while ((pos = stripped.find("struct", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 6;
    if (!word_match(stripped, at, "struct")) continue;
    std::size_t i = skip_ws(stripped, at + 6);
    std::size_t end = i;
    while (end < stripped.size() && is_ident_char(stripped[end])) ++end;
    if (end == i) continue;
    const std::string name = stripped.substr(i, end - i);
    i = skip_ws(stripped, end);
    if (i >= stripped.size() || stripped[i] != '{') continue;  // fwd decl
    int depth = 0;
    std::size_t close = i;
    for (; close < stripped.size(); ++close) {
      if (stripped[close] == '{') ++depth;
      else if (stripped[close] == '}' && --depth == 0) break;
    }
    out.push_back(StructDecl{name, line_of(stripped, at),
                             stripped.substr(i + 1, close - i - 1)});
    pos = close;
  }
  return out;
}

/// Type names inside `using Message = std::variant<...>;`.
std::vector<std::string> parse_variant(const std::string& stripped) {
  std::vector<std::string> out;
  const std::size_t at = stripped.find("using Message");
  if (at == std::string::npos) return out;
  const std::size_t open = stripped.find('<', at);
  const std::size_t close = stripped.find(';', at);
  if (open == std::string::npos || close == std::string::npos) return out;
  std::size_t i = open;
  while (i < close) {
    if (!is_ident_char(stripped[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < close && is_ident_char(stripped[end])) ++end;
    const std::string ident = stripped.substr(i, end - i);
    // Skip the std::variant scaffolding and qualification.
    if (ident != "std" && ident != "variant") out.push_back(ident);
    i = end;
  }
  return out;
}

/// The "## Causal span propagation" section of PROTOCOL.md, or empty.
std::string span_section(const Tree& tree) {
  const auto it = tree.docs.find("PROTOCOL.md");
  if (it == tree.docs.end()) return {};
  const std::size_t at = it->second.find("## Causal span propagation");
  if (at == std::string::npos) return {};
  std::size_t end = it->second.find("\n## ", at);
  if (end == std::string::npos) end = it->second.size();
  return it->second.substr(at, end - at);
}

int span_section_line(const Tree& tree) {
  const auto it = tree.docs.find("PROTOCOL.md");
  if (it == tree.docs.end()) return 0;
  const std::size_t at = it->second.find("## Causal span propagation");
  return at == std::string::npos ? 0 : line_of(it->second, at);
}

/// First backticked name of each `| `X` | ... |` table row in `section`.
std::set<std::string> table_entries(const std::string& section) {
  std::set<std::string> out;
  std::size_t pos = 0;
  while ((pos = section.find("\n| `", pos)) != std::string::npos) {
    const std::size_t begin = pos + 4;
    const std::size_t close = section.find('`', begin);
    if (close == std::string::npos) break;
    out.insert(section.substr(begin, close - begin));
    pos = close;
  }
  return out;
}

void add(std::vector<Finding>* findings, std::string file, int line,
         std::string check, std::string token, std::string detail) {
  findings->push_back(Finding{std::string(kPass), std::move(file), line,
                              std::move(check), std::move(token),
                              std::move(detail)});
}

void check_message_tables(const Tree& tree, std::vector<Finding>* findings) {
  const SourceFile* msg_h = find_file(tree, "proto/message.h");
  if (msg_h == nullptr) return;  // tree without a protocol layer (fixtures)
  if (msg_h->stripped.find("using Message") == std::string::npos)
    return;  // no variant to audit against
  const std::vector<StructDecl> structs = parse_structs(msg_h->stripped);
  const std::vector<std::string> variant = parse_variant(msg_h->stripped);
  const int variant_line =
      line_of(msg_h->stripped, msg_h->stripped.find("using Message"));
  std::map<std::string, const StructDecl*> by_name;
  for (const StructDecl& s : structs) by_name[s.name] = &s;
  const std::set<std::string> in_variant(variant.begin(), variant.end());

  // variant-membership, both directions.
  for (const StructDecl& s : structs) {
    if (!contains_word(s.body, "SpanContext")) continue;  // not a message
    if (!in_variant.contains(s.name))
      add(findings, msg_h->rel, s.line, "variant-membership", s.name,
          "message struct (has a SpanContext member) missing from the "
          "Message variant");
  }
  for (const std::string& name : variant) {
    if (!by_name.contains(name))
      add(findings, msg_h->rel, variant_line, "variant-membership", name,
          "Message variant names a type not declared as a struct in "
          "proto/message.h");
  }

  // Span documentation + stamping sites.
  const std::string section = span_section(tree);
  if (!section.empty()) {
    const int doc_line = span_section_line(tree);
    for (const std::string& name : variant) {
      if (section.find("`" + name + "`") == std::string::npos)
        add(findings, "docs/PROTOCOL.md", doc_line, "span-doc", name,
            "message type missing from the span-propagation section: list "
            "it in the parentage table or the explicit not-stamped note");
    }
    const std::set<std::string> stamped_per_doc = table_entries(section);
    // Stamping evidence: `X ident ...; ... ident.span =` in one proto/*.cc.
    std::set<std::string> stamped;          // any binding
    std::set<std::string> stamped_unique;   // ident bound to exactly one type
    for (const SourceFile& f : tree.files) {
      if (f.module != "proto" || !f.rel.ends_with(".cc")) continue;
      std::map<std::string, std::set<std::string>> ident_types;
      for (const std::string& name : in_variant) {
        std::size_t pos = 0;
        while ((pos = f.stripped.find(name, pos)) != std::string::npos) {
          const std::size_t at = pos;
          pos += name.size();
          if (!word_match(f.stripped, at, name)) continue;
          std::size_t i = skip_ws(f.stripped, at + name.size());
          std::size_t end = i;
          while (end < f.stripped.size() && is_ident_char(f.stripped[end]))
            ++end;
          if (end == i) continue;
          const std::size_t after = skip_ws(f.stripped, end);
          if (after < f.stripped.size() &&
              (f.stripped[after] == ';' || f.stripped[after] == '{' ||
               f.stripped[after] == '='))
            ident_types[f.stripped.substr(i, end - i)].insert(name);
        }
      }
      for (const auto& [ident, types] : ident_types) {
        if (f.stripped.find(ident + ".span") == std::string::npos &&
            collapse_ws(f.stripped).find(ident + ".span") ==
                std::string::npos)
          continue;
        for (const std::string& t : types) {
          stamped.insert(t);
          if (types.size() == 1) stamped_unique.insert(t);
        }
      }
    }
    for (const std::string& name : stamped_per_doc) {
      if (!in_variant.contains(name)) continue;  // doc rows for non-messages
      if (!stamped.contains(name))
        add(findings, msg_h->rel, by_name.contains(name) ? by_name.at(name)->line : 1,
            "span-stamp", name,
            "the span-propagation table says this message is stamped, but "
            "no `<var>.span = ...` site exists in proto/*.cc; stamp it or "
            "move it to the not-stamped note");
    }
    for (const std::string& name : stamped_unique) {
      if (!stamped_per_doc.contains(name))
        add(findings, "docs/PROTOCOL.md", doc_line, "span-doc", name,
            "message is span-stamped in proto/*.cc but missing from the "
            "span-propagation table; document its parent");
    }
  }
}

void check_drop_counters(const Tree& tree, std::vector<Finding>* findings) {
  const SourceFile* th = find_file(tree, "net/transport.h");
  if (th == nullptr) return;
  std::vector<std::pair<std::string, int>> drop_fields;
  for (const StructDecl& s : parse_structs(th->stripped)) {
    if (s.name != "Stats") continue;
    std::size_t pos = 0;
    while (true) {
      pos = s.body.find("_drops", pos);
      if (pos == std::string::npos) break;
      std::size_t begin = pos;
      while (begin > 0 && is_ident_char(s.body[begin - 1])) --begin;
      const std::size_t end = pos + 6;
      if (end < s.body.size() && is_ident_char(s.body[end])) {
        pos = end;
        continue;
      }
      const std::string field = s.body.substr(begin, end - begin);
      // Only declarations count (`std::uint64_t x_drops = 0;`); member
      // accesses (`x.uplink_drops`, `p->core_drops`) inside body methods
      // are uses, not buckets.
      if (begin == 0 ||
          (s.body[begin - 1] != '.' && s.body[begin - 1] != '>'))
        drop_fields.push_back({field, s.line});
      pos = end;
    }
  }
  // Dedupe while keeping declaration order.
  std::set<std::string> seen;
  for (const auto& [field, line] : drop_fields) {
    if (!seen.insert(field).second) continue;
    bool incremented = false;
    for (const SourceFile& f : tree.files) {
      if (f.module != "net") continue;
      if (collapse_ws(f.stripped).find("++stats_." + field) !=
          std::string::npos) {
        incremented = true;
        break;
      }
    }
    if (!incremented)
      add(findings, th->rel, line, "drop-counter", field,
          "drop counter declared in Transport::Stats but never "
          "incremented in net/ — a drop bucket no packet can land in");
    const SourceFile* exp = find_file(tree, "core/experiment.cc");
    if (exp != nullptr && !contains_word(exp->stripped, field))
      add(findings, "core/experiment.cc", 1, "drop-counter", field,
          "drop counter missing from the total-drops reconciliation in "
          "core/experiment.cc — packets landing in this bucket would "
          "escape the every-packet-lands-in-one-bucket audit");
  }
}

/// The packet-format table in docs/WIRE.md vs proto/message.h's variant,
/// both directions: a message type the wire carries must have its body
/// layout documented, and the table must not document a phantom type.
void check_wire_doc(const Tree& tree, std::vector<Finding>* findings) {
  if (find_file(tree, "wire/codec.h") == nullptr)
    return;  // tree without the wire layer (fixtures)
  const SourceFile* msg_h = find_file(tree, "proto/message.h");
  if (msg_h == nullptr) return;
  const std::vector<std::string> variant = parse_variant(msg_h->stripped);
  if (variant.empty()) return;
  const std::set<std::string> in_variant(variant.begin(), variant.end());

  const auto doc = tree.docs.find("WIRE.md");
  if (doc == tree.docs.end()) {
    add(findings, "docs/WIRE.md", 1, "wire-doc", "WIRE.md",
        "the wire layer exists but docs/WIRE.md is missing; the packet "
        "format table is the format's only human-readable spec");
    return;
  }
  const std::size_t sec_at = doc->second.find("## Packet formats");
  if (sec_at == std::string::npos) {
    add(findings, "docs/WIRE.md", 1, "wire-doc", "Packet formats",
        "docs/WIRE.md has no \"## Packet formats\" section; the audit "
        "cross-checks its table against the Message variant");
    return;
  }
  std::size_t sec_end = doc->second.find("\n## ", sec_at);
  if (sec_end == std::string::npos) sec_end = doc->second.size();
  const std::string section = doc->second.substr(sec_at, sec_end - sec_at);
  const int doc_line = line_of(doc->second, sec_at);
  const std::set<std::string> documented = table_entries(section);
  for (const std::string& name : variant)
    if (!documented.contains(name))
      add(findings, "docs/WIRE.md", doc_line, "wire-doc", name,
          "message type missing from the packet-formats table; every "
          "variant's body layout must be documented");
  for (const std::string& name : documented)
    if (!in_variant.contains(name))
      add(findings, "docs/WIRE.md", doc_line, "wire-doc", name,
          "packet-formats table documents a type that is not a Message "
          "variant member; drop the stale row");
}

void check_resource_gauges(const Tree& tree, std::vector<Finding>* findings) {
  const SourceFile* probe = find_file(tree, "obs/resource_probe.h");
  if (probe == nullptr) return;  // tree without the probe (fixtures)
  // Locate the kResourceGaugeNames declaration in the stripped text (so a
  // comment mentioning the name cannot match), then read the array's string
  // literals from the raw text — stripping is offset-preserving, so the
  // brace positions line up.
  const std::size_t at = probe->stripped.find("kResourceGaugeNames");
  if (at == std::string::npos) {
    add(findings, probe->rel, 1, "resource-gauge-doc", "kResourceGaugeNames",
        "obs/resource_probe.h no longer declares kResourceGaugeNames; the "
        "docs cross-check needs the published gauge list");
    return;
  }
  const std::size_t open = probe->stripped.find('{', at);
  const std::size_t close = open == std::string::npos
                                ? std::string::npos
                                : probe->stripped.find('}', open);
  if (close == std::string::npos) return;
  std::vector<std::string> gauges;
  std::size_t pos = open;
  while (true) {
    const std::size_t q = probe->raw.find('"', pos);
    if (q == std::string::npos || q > close) break;
    const std::size_t q2 = probe->raw.find('"', q + 1);
    if (q2 == std::string::npos || q2 > close) break;
    gauges.push_back(probe->raw.substr(q + 1, q2 - q - 1));
    pos = q2 + 1;
  }
  const int decl_line = line_of(probe->raw, at);

  const auto it = tree.docs.find("OBSERVABILITY.md");
  if (it == tree.docs.end()) return;
  const std::size_t sec_at =
      it->second.find("### Resource and scheduler gauges");
  if (sec_at == std::string::npos) {
    add(findings, "docs/OBSERVABILITY.md", 1, "resource-gauge-doc",
        "kResourceGaugeNames",
        "obs/resource_probe.h publishes resource gauges but "
        "docs/OBSERVABILITY.md has no \"### Resource and scheduler "
        "gauges\" table documenting them");
    return;
  }
  std::size_t sec_end = it->second.find("\n## ", sec_at);
  const std::size_t sub_end = it->second.find("\n### ", sec_at + 1);
  if (sub_end != std::string::npos &&
      (sec_end == std::string::npos || sub_end < sec_end))
    sec_end = sub_end;
  if (sec_end == std::string::npos) sec_end = it->second.size();
  const std::string section = it->second.substr(sec_at, sec_end - sec_at);
  const int doc_line = line_of(it->second, sec_at);

  const std::set<std::string> documented = table_entries(section);
  const std::set<std::string> published(gauges.begin(), gauges.end());
  for (const std::string& g : gauges)
    if (!documented.contains(g))
      add(findings, "docs/OBSERVABILITY.md", doc_line, "resource-gauge-doc", g,
          "gauge published by obs::ResourceProbe (kResourceGaugeNames) "
          "missing from the resource-and-scheduler-gauges table");
  for (const std::string& d : documented)
    if (!published.contains(d))
      add(findings, probe->rel, decl_line, "resource-gauge-doc", d,
          "the resource-and-scheduler-gauges table documents a gauge "
          "kResourceGaugeNames does not declare; probe and docs must list "
          "the same names");
}

/// Reads the string literals of an `inline constexpr std::array<...> name
/// = { "...", ... };` declaration. The declaration is located in the
/// stripped text (so a comment mentioning the name cannot match) and the
/// literals come from the raw text — stripping is offset-preserving, so
/// the brace positions line up. Returns false when `name` is absent.
bool parse_string_array(const SourceFile& f, std::string_view name,
                        std::vector<std::string>* out, int* decl_line) {
  const std::size_t at = f.stripped.find(name);
  if (at == std::string::npos) return false;
  *decl_line = line_of(f.raw, at);
  const std::size_t open = f.stripped.find('{', at);
  const std::size_t close =
      open == std::string::npos ? std::string::npos
                                : f.stripped.find('}', open);
  if (close == std::string::npos) return true;
  std::size_t pos = open;
  while (true) {
    const std::size_t q = f.raw.find('"', pos);
    if (q == std::string::npos || q > close) break;
    const std::size_t q2 = f.raw.find('"', q + 1);
    if (q2 == std::string::npos || q2 > close) break;
    out->push_back(f.raw.substr(q + 1, q2 - q - 1));
    pos = q2 + 1;
  }
  return true;
}

/// One `### heading` (or `## heading`) doc section, ending at the next
/// heading of either level. Returns false when the doc or heading is
/// missing.
bool doc_section_of(const Tree& tree, const std::string& doc_name,
                    std::string_view heading, std::string* section,
                    int* line) {
  const auto it = tree.docs.find(doc_name);
  if (it == tree.docs.end()) return false;
  const std::size_t at = it->second.find(heading);
  if (at == std::string::npos) return false;
  std::size_t end = it->second.find("\n## ", at);
  const std::size_t sub = it->second.find("\n### ", at + 1);
  if (sub != std::string::npos && (end == std::string::npos || sub < end))
    end = sub;
  if (end == std::string::npos) end = it->second.size();
  *section = it->second.substr(at, end - at);
  *line = line_of(it->second, at);
  return true;
}

void check_rx_errors(const Tree& tree, std::vector<Finding>* findings) {
  const SourceFile* udp = find_file(tree, "wire/udp.h");
  if (udp == nullptr) return;  // tree without the wire layer (fixtures)

  // Counter fields declared inside `struct RxErrors { ... }` — an
  // identifier directly followed by `=` (skipping the total() helper and
  // its field uses, which are followed by `+`, `;` or `(`).
  std::vector<std::string> fields;
  int struct_line = 1;
  for (const StructDecl& s : parse_structs(udp->stripped)) {
    if (s.name != "RxErrors") continue;
    struct_line = s.line;
    std::size_t i = 0;
    while ((i = s.body.find("uint64_t", i)) != std::string::npos) {
      if (!word_match(s.body, i, "uint64_t")) {
        i += 8;
        continue;
      }
      std::size_t b = skip_ws(s.body, i + 8);
      std::size_t end = b;
      while (end < s.body.size() && is_ident_char(s.body[end])) ++end;
      const std::size_t after = skip_ws(s.body, end);
      if (end > b && after < s.body.size() && s.body[after] == '=')
        fields.push_back(s.body.substr(b, end - b));
      i = end;
    }
  }
  if (fields.empty()) return;  // no RxErrors struct to audit

  std::vector<std::string> buckets;
  int array_line = 1;
  if (!parse_string_array(*udp, "kRxErrorBucketNames", &buckets,
                          &array_line)) {
    add(findings, udp->rel, struct_line, "rx-error-export",
        "kRxErrorBucketNames",
        "wire/udp.h declares RxErrors but no kRxErrorBucketNames export "
        "table; nodes cannot publish the rejection buckets as labeled "
        "counters");
    return;
  }
  const std::set<std::string> exported(buckets.begin(), buckets.end());
  const std::set<std::string> declared(fields.begin(), fields.end());
  for (const std::string& f : fields)
    if (!exported.contains(f))
      add(findings, udp->rel, array_line, "rx-error-export", f,
          "RxErrors counter missing from kRxErrorBucketNames — codec "
          "rejections landing in this bucket never reach --metrics-out or "
          "telemetry snapshots");
  for (const std::string& b : buckets)
    if (!declared.contains(b))
      add(findings, udp->rel, array_line, "rx-error-export", b,
          "kRxErrorBucketNames exports a bucket RxErrors does not declare; "
          "for_each_rx_error and the struct must list the same fields");

  std::string section;
  int doc_line = 1;
  if (!doc_section_of(tree, "WIRE.md", "### Rx error counters", &section,
                      &doc_line)) {
    add(findings, "docs/WIRE.md", 1, "rx-error-doc", "Rx error counters",
        "wire/udp.h exports rx-error buckets but docs/WIRE.md has no "
        "\"### Rx error counters\" table documenting them");
    return;
  }
  const std::set<std::string> documented = table_entries(section);
  for (const std::string& b : buckets)
    if (!documented.contains(b))
      add(findings, "docs/WIRE.md", doc_line, "rx-error-doc", b,
          "exported rx-error bucket missing from the rx-error-counters "
          "table");
  for (const std::string& d : documented)
    if (!exported.contains(d))
      add(findings, udp->rel, array_line, "rx-error-doc", d,
          "the rx-error-counters table documents a bucket "
          "kRxErrorBucketNames does not export; table and export list "
          "must match");
}

void check_telemetry_records(const Tree& tree,
                             std::vector<Finding>* findings) {
  const SourceFile* th = find_file(tree, "wire/telemetry.h");
  if (th == nullptr) return;  // tree without the telemetry plane (fixtures)
  std::vector<std::string> records;
  int array_line = 1;
  if (!parse_string_array(*th, "kTelemetryRecordNames", &records,
                          &array_line)) {
    add(findings, th->rel, 1, "telemetry-record-doc", "kTelemetryRecordNames",
        "wire/telemetry.h no longer declares kTelemetryRecordNames; the "
        "docs cross-check needs the record-type inventory");
    return;
  }
  std::string section;
  int doc_line = 1;
  if (!doc_section_of(tree, "OBSERVABILITY.md", "### Telemetry record types",
                      &section, &doc_line)) {
    add(findings, "docs/OBSERVABILITY.md", 1, "telemetry-record-doc",
        "kTelemetryRecordNames",
        "wire/telemetry.h declares telemetry record types but "
        "docs/OBSERVABILITY.md has no \"### Telemetry record types\" "
        "table documenting the datagram layout");
    return;
  }
  const std::set<std::string> documented = table_entries(section);
  const std::set<std::string> declared(records.begin(), records.end());
  for (const std::string& r : records)
    if (!documented.contains(r))
      add(findings, "docs/OBSERVABILITY.md", doc_line,
          "telemetry-record-doc", r,
          "telemetry record type (kTelemetryRecordNames) missing from the "
          "telemetry-record-types table");
  for (const std::string& d : documented)
    if (!declared.contains(d))
      add(findings, th->rel, array_line, "telemetry-record-doc", d,
          "the telemetry-record-types table documents a record type "
          "kTelemetryRecordNames does not declare; inventory and docs "
          "must list the same names");
}

}  // namespace

void pass_completeness(const Tree& tree, std::vector<Finding>* findings) {
  check_message_tables(tree, findings);
  check_drop_counters(tree, findings);
  check_wire_doc(tree, findings);
  check_resource_gauges(tree, findings);
  check_rx_errors(tree, findings);
  check_telemetry_records(tree, findings);
}

}  // namespace ppsim::lint
