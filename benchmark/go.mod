// The benchmark is a module of its own so that the repository's tier-1
// `go build ./... && go test ./...` neither compiles nor runs it. The
// module path keeps the gomp/ prefix: that is what lets it time calls
// into gomp/internal/... packages from outside them.
module gomp/benchmark

go 1.24

require gomp v0.0.0

replace gomp => ../
