#include "src/support/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace refscan {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsWordChar(char c) {
  // A "word" inside an identifier: alphanumeric run; '_' is a separator.
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> SplitWhitespace(std::string_view text) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) == 0) {
      ++i;
    }
    if (i > start) {
      out.push_back(text.substr(start, i - start));
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::vector<std::string> IdentifierWords(std::string_view text) {
  std::vector<std::string> words;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(text[i])) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() && IsWordChar(text[i])) {
      ++i;
    }
    if (i > start) {
      words.push_back(ToLower(text.substr(start, i - start)));
    }
  }
  return words;
}

bool ContainsIdentifierWord(std::string_view text, std::string_view word) {
  // Allocation-free equivalent of searching ToLower(word) in
  // IdentifierWords(text) — this predicate runs for every candidate name
  // during KB discovery, so the per-call string/vector churn matters.
  auto lower = [](char c) {
    return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + ('a' - 'A')) : c;
  };
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(text[i])) {
      ++i;
    }
    const size_t start = i;
    while (i < text.size() && IsWordChar(text[i])) {
      ++i;
    }
    if (i - start == word.size()) {
      bool eq = true;
      for (size_t k = 0; k < word.size() && eq; ++k) {
        eq = lower(text[start + k]) == lower(word[k]);
      }
      if (eq) {
        return true;
      }
    }
  }
  return false;
}

bool EndsWithWord(std::string_view name, std::string_view suffix) {
  if (name.size() < suffix.size() || !name.ends_with(suffix)) {
    return false;
  }
  if (name.size() == suffix.size()) {
    return true;
  }
  const char before = name[name.size() - suffix.size() - 1];
  return before == '_' || !IsWordChar(before);
}

bool StartsWithWord(std::string_view name, std::string_view prefix) {
  if (!name.starts_with(prefix)) {
    return false;
  }
  if (name.size() == prefix.size()) {
    return true;
  }
  const char after = name[prefix.size()];
  return after == '_' || !IsIdentChar(after);
}

bool ParseUnsigned(std::string_view text, uint64_t max, uint64_t& out) {
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() || value > max) {
    return false;
  }
  out = value;
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace refscan
