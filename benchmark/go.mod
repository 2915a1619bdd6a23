module adaptivetc/benchmark

go 1.22

require adaptivetc v0.0.0

replace adaptivetc => ../
