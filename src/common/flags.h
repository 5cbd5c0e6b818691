#ifndef PSTORE_COMMON_FLAGS_H_
#define PSTORE_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pstore {

// Minimal command-line flag parser for the repo's CLI tools. Accepts
// "--name=value", "--name value", and bare "--name" (boolean true);
// everything else is a positional argument. No registration needed:
// tools query parsed flags with typed getters and defaults, and may
// reject flags they do not know with CheckKnown.
class FlagParser {
 public:
  // Parses argv (excluding argv[0]). Returns an error on malformed
  // input such as a value-expecting flag at the end ("--x" followed by
  // nothing is fine: it becomes boolean true).
  Status Parse(int argc, const char* const* argv);

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  // Every value given for a repeatable flag ("--rule=a --rule=b"), in
  // command-line order; empty when the flag is absent. The scalar
  // getters see only the last occurrence.
  std::vector<std::string> GetStrings(const std::string& name) const;
  // Return kInvalidArgument if the flag is present but not parseable.
  StatusOr<int64_t> GetInt(const std::string& name,
                           int64_t default_value) const;
  StatusOr<double> GetDouble(const std::string& name,
                             double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Returns kInvalidArgument naming the first parsed flag, in name
  // order, that is not listed in `known`; OK when every flag is known.
  Status CheckKnown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> flags_;
  // Every (name, value) occurrence in command-line order, for
  // repeatable flags.
  std::vector<std::pair<std::string, std::string>> occurrences_;
  std::vector<std::string> positional_;
};

}  // namespace pstore

#endif  // PSTORE_COMMON_FLAGS_H_
