#ifndef GTADOC_TESTS_SERVING_HELPERS_H_
#define GTADOC_TESTS_SERVING_HELPERS_H_

#include <utility>
#include <vector>

#include "analytics/scheduler.h"
#include "analytics/server.h"

namespace gtadoc {

/// Serves every queued run under `mode`, then awaits `tickets` in the given
/// order — the submission-ordered view of one serve. Returns the first
/// failure.
inline Result<std::vector<CorpusServer::ServedRun>> ServeAndAwait(
    CorpusServer* server, std::vector<CorpusServer::RunTicket> tickets,
    AdmissionMode mode) {
  GTADOC_RETURN_IF_ERROR(server->ServeUntilIdle(mode));
  std::vector<CorpusServer::ServedRun> served;
  for (CorpusServer::RunTicket& ticket : tickets) {
    auto run = ticket.Await();
    if (!run.ok()) return run.status();
    served.push_back(std::move(*run));
  }
  return served;
}

/// Submits every request under one fresh tenant and serves them under
/// `mode`; the runs come back in submission order.
inline Result<std::vector<CorpusServer::ServedRun>> SubmitAndServe(
    CorpusServer* server, const std::vector<CorpusServer::RunRequest>& requests,
    AdmissionMode mode) {
  auto tenant = server->OpenTenant({});
  if (!tenant.ok()) return tenant.status();
  std::vector<CorpusServer::RunTicket> tickets;
  for (const auto& request : requests) {
    auto submitted = tenant->Submit(request);
    if (!submitted.ok()) return submitted.status();
    if (!submitted->admitted()) {
      return Status::InvalidArgument(submitted->rejection->detail);
    }
    tickets.push_back(*submitted->ticket);
  }
  return ServeAndAwait(server, tickets, mode);
}

}  // namespace gtadoc

#endif  // GTADOC_TESTS_SERVING_HELPERS_H_
