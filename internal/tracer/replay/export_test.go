package replay

// Load is the bytes entry Open reads a file into: the tests, benchmarks and
// fuzzer load captures through the path the binaries ship.
var Load = load
