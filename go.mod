module godsm

go 1.23
