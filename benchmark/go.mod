module harmony/benchmark

go 1.24

require harmony v0.0.0

replace harmony => ../
