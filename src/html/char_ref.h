#ifndef WSD_HTML_CHAR_REF_H_
#define WSD_HTML_CHAR_REF_H_

#include <string>
#include <string_view>

namespace wsd {
namespace html {

/// Decodes HTML character references in `s`: the named entities that occur
/// in practice on listing pages (&amp; &lt; &gt; &quot; &apos; &nbsp;
/// &copy; &mdash; &ndash; &hellip; &middot; &bull; &amp;#NN; and
/// &amp;#xHH;). Unknown references are passed through verbatim, matching
/// lenient browser behavior. Output is UTF-8.
std::string DecodeCharRefs(std::string_view s);

/// Appending variant of DecodeCharRefs: decodes into *out without
/// constructing a return temporary. The scan kernel's hot path — no heap
/// allocation once *out's capacity covers the decoded text.
void DecodeCharRefsInto(std::string_view s, std::string* out);

/// The pre-kernel implementation of DecodeCharRefs: a per-character copy
/// loop into a fresh string. Identical output; kept verbatim as the
/// ablation baseline for ExtractVisibleTextLegacy / bench_micro_scan.
/// Do not optimize.
std::string DecodeCharRefsLegacy(std::string_view s);

/// Escapes the five characters that must be encoded in HTML text and
/// attribute values: & < > " '.
std::string EscapeHtml(std::string_view s);

/// Appending variant of EscapeHtml, for render-into-buffer page
/// generation.
void EscapeHtmlInto(std::string_view s, std::string* out);

/// Escapes the bytes of *s from `pos` on, in place: *s becomes its first
/// `pos` bytes followed by EscapeHtml of the rest. Lets a renderer write
/// text straight into its page buffer and escape it there. Allocates only
/// if *s must grow.
void EscapeHtmlInPlace(std::string* s, size_t pos);

}  // namespace html
}  // namespace wsd

#endif  // WSD_HTML_CHAR_REF_H_
