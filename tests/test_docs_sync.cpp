// Documentation/config synchronization: docs/CONFIG.md must document
// exactly the config keys that src/config/apply.cpp handles.  Both files
// are read from the source tree (TSC3D_SOURCE_DIR) and compared as key
// sets, so adding a key to either side without the other fails the
// suite with the offending key named.
//
// Extraction rules:
//  * apply.cpp keys are the string literals passed to the typed
//    ConfigFile getters (get_string/get_double/get_size/get_bool and the
//    require_ variants) that contain a section dot;
//  * CONFIG.md keys are every backticked `section.key` token whose
//    section is one of the known config sections -- prose mentions count
//    as documentation, file names like `foo/bar.conf` do not match.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

namespace {

std::string read_source_file(const std::string& relative) {
  const std::string path = std::string(TSC3D_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const std::set<std::string>& config_sections() {
  static const std::set<std::string> sections{
      "technology", "thermal", "floorplanning", "service", "campaign"};
  return sections;
}

std::string section_of(const std::string& key) {
  return key.substr(0, key.find('.'));
}

std::set<std::string> keys_handled_by_apply_cpp() {
  const std::string src = read_source_file("src/config/apply.cpp");
  static const std::regex getter(
      R"((?:get_string|get_double|get_size|get_bool|require_string|require_double)\s*\(\s*\"([a-z0-9_]+\.[a-z0-9_]+)\")");
  std::set<std::string> keys;
  for (auto it = std::sregex_iterator(src.begin(), src.end(), getter);
       it != std::sregex_iterator(); ++it)
    keys.insert((*it)[1].str());
  return keys;
}

std::set<std::string> keys_documented_in_config_md() {
  const std::string doc = read_source_file("docs/CONFIG.md");
  static const std::regex backticked(
      R"(`([a-z][a-z0-9_]*\.[a-z][a-z0-9_]*)`)");
  std::set<std::string> keys;
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), backticked);
       it != std::sregex_iterator(); ++it) {
    const std::string key = (*it)[1].str();
    if (config_sections().count(section_of(key)) > 0) keys.insert(key);
  }
  return keys;
}

TEST(ConfigDocSync, ExtractionFindsBothSides) {
  // Guard against a silently broken regex reporting two empty (and thus
  // trivially equal) sets.
  EXPECT_GE(keys_handled_by_apply_cpp().size(), 20u);
  EXPECT_GE(keys_documented_in_config_md().size(), 20u);
  EXPECT_EQ(keys_handled_by_apply_cpp().count("floorplanning.chains"), 1u);
}

TEST(ConfigDocSync, EveryHandledKeyIsDocumented) {
  const std::set<std::string> handled = keys_handled_by_apply_cpp();
  const std::set<std::string> documented = keys_documented_in_config_md();
  for (const std::string& key : handled)
    EXPECT_EQ(documented.count(key), 1u)
        << "config key '" << key
        << "' is handled in src/config/apply.cpp but not documented in "
           "docs/CONFIG.md";
}

TEST(ConfigDocSync, EveryDocumentedKeyIsHandled) {
  const std::set<std::string> handled = keys_handled_by_apply_cpp();
  const std::set<std::string> documented = keys_documented_in_config_md();
  for (const std::string& key : documented)
    EXPECT_EQ(handled.count(key), 1u)
        << "docs/CONFIG.md documents '" << key
        << "' which src/config/apply.cpp does not handle (stale doc?)";
}

TEST(ConfigDocSync, DocumentedSectionsMatchKnownSections) {
  for (const std::string& key : keys_handled_by_apply_cpp())
    EXPECT_EQ(config_sections().count(section_of(key)), 1u)
        << "apply.cpp introduced section '" << section_of(key)
        << "' -- teach tests/test_docs_sync.cpp and docs/CONFIG.md about it";
}

}  // namespace
