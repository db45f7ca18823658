module unreached

go 1.24
