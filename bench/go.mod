// The publish benchmark is a module of its own so that it builds from its
// own directory; it measures the parent module through a local replace.
module rdx/bench

go 1.24

require rdx v0.0.0

replace rdx => ../
