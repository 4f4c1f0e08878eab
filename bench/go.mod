// The repo benchmark is a module of its own so that it builds, vets and
// tests apart from the code it measures; the import path stays under
// weakestfd/ so it may import weakestfd/internal/... (the traced run calls
// the layers' public functions in-process).
module weakestfd/bench

go 1.24

require weakestfd v0.0.0

replace weakestfd => ../
