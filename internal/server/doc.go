// Package server turns the one-shot theta-join stack into a resident
// multi-query service: a long-lived Service accepts concurrent query
// submissions, compiles them through core.Planner and executes their
// jobs against one machine-wide K_P-unit scheduler.
//
// Two concerns distinguish serving from batch execution, and the
// Service owns both:
//
//   - Cross-plan scheduling. A one-shot run gives its plan a private
//     K_P-unit semaphore; two such runs side by side would oversubscribe
//     the machine 2×. The Service installs one core.SharedUnitPool for
//     every execution, so the combined unit holdings of all in-flight
//     plans never exceed K_P, and a schedule.Arbiter assigns each
//     admitted query an equal-share unit budget (core.WithBudget) so a
//     wide plan cannot starve the rest. Admission is a bounded queue:
//     beyond MaxConcurrent executing queries, up to MaxQueue wait, and
//     the rest are rejected immediately; waiters time out after
//     QueueTimeout.
//
//   - Plan caching. Submissions are canonicalized (query.Canonical) and
//     compiled plans cached under (canonical string, catalog version),
//     so a repeated query skips joinpath/setcover/schedule entirely.
//     Identical in-flight submissions compile once (singleflight);
//     hits, misses and planning times land in the obs registry. The
//     catalog version (core.DB.CatalogVersion) ties every entry to the
//     statistics it was planned from: re-analyzing or reloading
//     relations invalidates the cache wholesale.
//
// cmd/thetad wraps the Service in an HTTP/JSON daemon; cmd/thetajoin's
// -server flag is the matching client.
package server
