// The benchmark is a module of its own, so that the repository's build and
// tests do not depend on it; it reaches the program under test through the
// replace below and may import logr/internal/... because its module path
// sits under logr/.
module logr/bench

go 1.22

require logr v0.0.0

replace logr => ../
