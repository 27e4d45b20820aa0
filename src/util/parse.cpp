#include "util/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace tegrec::util {

namespace {

std::string trimmed(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

[[noreturn]] void fail(const char* what, const std::string& text) {
  throw std::invalid_argument(std::string("expected ") + what + ", got '" +
                              text + "'");
}

}  // namespace

double parse_double(const std::string& text) {
  const std::string token = trimmed(text);
  if (token.empty()) fail("a number", text);
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) fail("a number", text);
  // strtod also accepts "nan"/"inf"; a non-finite flag or spec value would
  // sail through downstream range checks (NaN compares false against
  // everything), so it counts as garbage here.  That covers overflow too
  // (HUGE_VAL); an underflow's ERANGE is ignored, since its result is the
  // correctly rounded subnormal or zero the codecs wrote.
  if (!std::isfinite(value)) fail("a finite number", text);
  return value;
}

std::uint64_t parse_u64(const std::string& text) {
  const std::string token = trimmed(text);
  // strtoull accepts a leading '-' (wrapping the value); reject it here.
  if (token.empty() || token[0] == '-' || token[0] == '+') {
    fail("a non-negative integer", text);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    fail("a non-negative integer", text);
  }
  return value;
}

std::int64_t parse_i64(const std::string& text) {
  const std::string token = trimmed(text);
  if (token.empty()) fail("an integer", text);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) {
    fail("an integer", text);
  }
  return value;
}

bool parse_bool(const std::string& text) {
  const std::string token = trimmed(text);
  if (token == "1" || token == "true") return true;
  if (token == "0" || token == "false") return false;
  fail("a boolean (0/1/true/false)", text);
}

}  // namespace tegrec::util
