module github.com/hetfed/hetfed/benchmark

go 1.22

require github.com/hetfed/hetfed v0.0.0

replace github.com/hetfed/hetfed => ../
