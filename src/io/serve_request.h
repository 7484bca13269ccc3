#ifndef AQO_IO_SERVE_REQUEST_H_
#define AQO_IO_SERVE_REQUEST_H_

// The request path of the aqo_serve protocol: one `req` frame payload
// (io/framing.h) in, one response payload out. tools/aqo_serve.cc answers
// every `req` frame with it, and fuzz/fuzz_serve_request.cc enters here.
//
//   request:  req <id> [deadline_ms] [optimizer=<name>]\n<qon|qoh instance>
//   response: ok <id> <family> feasible=<0|1> status=<s> cost_log2=<g17>
//               evaluations=<n> [degraded=1] [\nseq <ints>]
//               [\npipelines <ints>]
//        or:  err <id> <reason>   (header, parse, optimizer, domain, shed)
//
// A header token strtod reads whole is the request's deadline in ms, and
// `optimizer=<name>` (a name or alias) its registry entry; any other token
// is answered `err <id> header: ...`. The body's first token names the
// family. A cache hit answers the bytes a fresh computation would.

#include <string>
#include <string_view>

#include "qo/overload.h"
#include "qo/service.h"

namespace aqo {

// A frame payload split the way aqo_serve dispatches on it: the first
// line is `<verb> <id> [tokens]`, the body follows its newline. Views
// into the payload; a missing token is "".
struct ServeFrame {
  std::string_view line;    // the first line, without its newline
  std::string_view verb;
  std::string_view id;
  std::string_view tokens;  // the first line after the id
  std::string_view body;
};

// Splits `payload` at its first newline and reads the verb and id off the
// first line (tokens are separated by what `std::isspace` accepts in the
// C locale).
ServeFrame SplitServeFrame(std::string_view payload);

// Answers one `req` frame with a non-empty id (the verb is not checked).
// The body is parsed under a `serve.parse` trace slice with a
// qo.serve.parse_us sample, admitted through `governor` (Admit; a shed or
// degrade writes an `overload_decision` run-log record) and run as a
// one-instance batch with `qon` or `qoh` (optimizer, knobs, seed, cache).
std::string ServeRequest(const ServeFrame& request, const BatchOptions& qon,
                         const BatchOptions& qoh, LoadGovernor* governor);

// True when `payload` opens with a verb of the protocol (`req `, `ping `,
// `health `, `snapshot `): the validator aqo_serve's FrameReader resyncs
// on (io/framing.h).
bool StartsWithServeVerb(const std::string& payload);

}  // namespace aqo

#endif  // AQO_IO_SERVE_REQUEST_H_
